"""The public/unique player model (Section 3.1, "A Slight Change of The
Model").

Instead of one player per vertex of G, the lower-bound model has
N - 2r public players (one per public vertex, seeing *all* of its edges
in G) and k*N unique players u_{i,j} (one per copy i and RS vertex j,
seeing only vertex j's edges *inside copy G_i*).  A unique player whose
vertex is unique sees that vertex's full G-neighborhood; a unique player
holding an extra copy of a public vertex sees only that vertex's slice
of one copy.

The referee may ignore the extra copies and run any ordinary protocol,
which is why lower bounds in this model transfer to the original one —
``vertex_player_views`` reconstructs exactly the ordinary model's views
from the split, and a test asserts the reconstruction matches
``views_of(instance.graph)``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..model import VertexView
from .distribution import DMMInstance

#: Identifier of a unique player: (copy index i, RS vertex j).
UniquePlayerId = tuple[int, int]


@dataclass(frozen=True)
class PlayerSplit:
    """All player views of one instance, split per Section 3.1."""

    public: dict[int, VertexView]  # keyed by public vertex *label*
    unique: dict[UniquePlayerId, VertexView]  # keyed by (copy, rs_vertex)


def public_player_views(instance: DMMInstance) -> dict[int, VertexView]:
    """One view per public vertex, with its full neighborhood in G."""
    n = instance.hard.n
    graph = instance.graph
    return {
        label: VertexView(n=n, vertex=label, neighbors=graph.neighbors(label))
        for label in sorted(instance.public_labels)
    }


def copy_player_views(instance: DMMInstance, i: int) -> dict[int, VertexView]:
    """Copy i's unique players, keyed by RS vertex j: vertex j's edges
    inside G_i.

    A function of (j*, sigma, row i of the indicator table) only, which
    is what lets the exact lemma enumeration build each copy's players
    once per distinct row.
    """
    hard = instance.hard
    labels = instance.copy_labels(i)
    copy_adjacency: dict[int, set[int]] = {v: set() for v in hard.rs.graph.vertices}
    for mask, matching in zip(instance.indicators[i], hard.rs.matchings):
        for e, (u, v) in enumerate(matching):
            if (mask >> e) & 1:
                copy_adjacency[u].add(v)
                copy_adjacency[v].add(u)
    return {
        rs_vertex: VertexView(
            n=hard.n,
            vertex=labels[rs_vertex],
            neighbors=frozenset(labels[u] for u in rs_neighbors),
        )
        for rs_vertex, rs_neighbors in copy_adjacency.items()
    }


def unique_player_views(instance: DMMInstance) -> dict[UniquePlayerId, VertexView]:
    """One view per (copy i, RS vertex j): vertex j's edges inside G_i."""
    return {
        (i, rs_vertex): view
        for i in range(instance.hard.k)
        for rs_vertex, view in copy_player_views(instance, i).items()
    }


def player_split(instance: DMMInstance) -> PlayerSplit:
    """Both player groups of the Section 3.1 model, in one object."""
    return PlayerSplit(
        public=public_player_views(instance),
        unique=unique_player_views(instance),
    )


def ordinary_views(
    instance: DMMInstance,
    public: dict[int, VertexView],
    copies: Iterable[dict[int, VertexView]],
) -> dict[int, VertexView]:
    """The *original* model's views (one player per vertex of G) from
    already-built split views: the public players as-is, plus the unique
    players of genuinely unique vertices, copy by copy.

    ``copies`` yields each copy's :func:`copy_player_views` in copy
    order.  Every vertex label of G appears exactly once; isolated
    unique slots whose RS vertex lost all edges keep their (empty)
    views, so the union covers every label.
    """
    views = dict(public)
    for copy in copies:
        for view in copy.values():
            if instance.is_unique_label(view.vertex):
                views[view.vertex] = view
    return views


def vertex_player_views(instance: DMMInstance) -> dict[int, VertexView]:
    """The original model's views, reconstructed from the split."""
    return ordinary_views(
        instance,
        public_player_views(instance),
        (copy_player_views(instance, i) for i in range(instance.hard.k)),
    )
