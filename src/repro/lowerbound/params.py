"""Parameterization of the hard distribution D_MM (Section 3.1).

The paper's parameters: an (r, t)-RS graph on N vertices with
r = N / e^Θ(sqrt(log N)) and t = N/3, with k = t independently
subsampled copies, glued on the N - 2r vertices outside V* (the
endpoints of the special matching M_{j*}); total n = N - 2r + 2rk
vertices.

At the paper's k = t the instance has Θ(r·N) vertices, so the default
constructors expose k as a free knob (the claims and lemmas we verify
are stated for general k; only the final Theorem-1 algebra sets k = t).
``paper_scale`` still builds the exact k = t configuration for micro
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..engine import cache_key, construction_cache
from ..rsgraphs import RSGraph, best_uniform, sum_class_rs_graph, uniformize


@dataclass(frozen=True)
class HardDistribution:
    """A fully specified D_MM: the base RS graph plus the copy count k."""

    rs: RSGraph
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if not self.rs.is_uniform:
            raise ValueError("D_MM requires a uniform (r, t)-RS graph")
        if self.rs.r < 1:
            raise ValueError("the RS graph must have nonempty matchings")

    @cached_property
    def N(self) -> int:
        """Vertices of the base RS graph."""
        return self.rs.num_vertices

    @cached_property
    def r(self) -> int:
        """Size of every induced matching."""
        return self.rs.r

    @cached_property
    def t(self) -> int:
        """Number of induced matchings."""
        return self.rs.num_matchings

    @cached_property
    def n(self) -> int:
        """Vertices of the glued graph G: N - 2r public + 2rk unique."""
        return self.N - 2 * self.r + 2 * self.r * self.k

    @property
    def num_public(self) -> int:
        return self.N - 2 * self.r

    @property
    def num_unique(self) -> int:
        return 2 * self.r * self.k

    @property
    def claim31_threshold(self) -> float:
        """Claim 3.1's unique-unique matching size bound k*r/4."""
        return self.k * self.r / 4.0

    @property
    def claim31_probability_bound(self) -> float:
        """Claim 3.1's failure bound: holds w.p. >= 1 - 2^(-k*r/10)."""
        return 1.0 - 2.0 ** (-self.k * self.r / 10.0)

    @cached_property
    def cache_token(self) -> str:
        """A content address of this distribution, for cache keys.

        Keys on the RS graph's SHA-256 digest (its canonical CSR byte
        serialization) plus the matching partition and k — the default
        dataclass ``repr`` is not content-complete (graphs print only
        their size), so cache keys must not use it.  The digest replaces
        the old sorted-vertex/edge-tuple rendering: O(1) to read off a
        frozen graph instead of O(n + m log m) per key.
        """
        return cache_key(
            ("hard-distribution", self.k, self.rs.cache_token)
        )


def scaled_distribution(m: int, k: int, min_t: int = 2) -> HardDistribution:
    """Laptop-scale D_MM: sum-class RS graph at left-part size m,
    uniformized to maximize r*t, with an explicit copy count k.

    Pure in ``(m, k, min_t)``, so the construction is content-addressed
    in the engine cache; the returned distribution is shared and frozen.
    """
    return construction_cache().get_or_build(
        ("scaled-distribution", m, k, min_t),
        lambda: HardDistribution(
            rs=best_uniform(sum_class_rs_graph(m), min_t=min_t), k=k
        ),
    )


def paper_scale_distribution(m: int, r: int | None = None) -> HardDistribution:
    """The paper's exact scaling k = t, feasible only for small m.

    ``r`` optionally forces the uniformization size (smaller r gives more
    matchings t, hence more copies k = t).
    """

    def build() -> HardDistribution:
        base = sum_class_rs_graph(m)
        rs = best_uniform(base) if r is None else uniformize(base, r)
        return HardDistribution(rs=rs, k=rs.num_matchings)

    return construction_cache().get_or_build(
        ("paper-scale-distribution", m, r), build
    )


def micro_distribution(r: int = 1, t: int = 2, k: int = 2) -> HardDistribution:
    """The smallest hard distributions, for exact enumeration experiments.

    Uses a hand-rolled RS graph: t disjoint matchings of size r on
    2*r*t vertices — trivially induced (disjoint support, no extra
    edges).  Disjointness is a degenerate RS graph, but every object in
    the Section 3 machinery (public/unique split, indicators, transcript
    distributions) is well-defined on it, and the joint distribution of
    (J, indicators, transcript) stays small enough to enumerate exactly.
    """
    if r < 1 or t < 1 or k < 1:
        raise ValueError("r, t, k must be positive")

    def build() -> HardDistribution:
        from ..graphs import Graph

        graph = Graph(vertices=range(2 * r * t))
        matchings = []
        for j in range(t):
            edges = []
            for e in range(r):
                u = 2 * (j * r + e)
                graph.add_edge(u, u + 1)
                edges.append((u, u + 1))
            matchings.append(tuple(edges))
        rs = RSGraph(graph=graph.freeze(), matchings=tuple(matchings))
        return HardDistribution(rs=rs, k=k)

    return construction_cache().get_or_build(("micro-distribution", r, t, k), build)
