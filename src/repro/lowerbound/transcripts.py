"""Exact joint distributions of (J, M_{i,j}, Π) — Lemmas 3.3-3.5 as code.

For a micro :class:`~repro.lowerbound.params.HardDistribution` (k*t*r
indicator bits small enough to enumerate) and any concrete protocol with
fixed public coins (= a deterministic protocol, the averaging step of
the proof of Theorem 1), this module enumerates every (j*, subsampling
pattern) outcome, runs all public and unique players, runs the referee,
and assembles the *exact* joint distribution of

    J, { M_{i,j} }, Π(P), Π(U_1), ..., Π(U_k), O, |M^U_π|

conditioned on a fixed sigma (every lemma in the paper conditions on Σ,
so fixing it loses nothing).  On that distribution the three lemmas are
plain numerical statements:

* Lemma 3.3 (quantitative form extracted from its proof):
      I(M_{1,J},...,M_{k,J} ; Π | J)  >=  E|M^U_π| - Pr[err]·k·r - 1
* Lemma 3.4:
      I(M ; Π | J)  <=  H(Π(P)) + Σ_i I(M_{i,J} ; Π(U_i) | J)
* Lemma 3.5:
      I(M_{i,J} ; Π(U_i) | J)  <=  H(Π(U_i)) / t

The checkers below compute both sides of each, for any protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .. import obs
from ..graphs import is_maximal_matching, normalize_edge
from ..infotheory import JointDistribution, TableBuilder, TableDistribution
from ..model import Message, PublicCoins, SketchProtocol, VertexView
from ..obs import LEMMA_DECODES, LEMMA_OUTCOMES, LEMMA_SKETCHES
from .distribution import (
    DMMInstance,
    enumerate_indicator_tables,
    identity_sigma,
)
from .params import HardDistribution
from .players import copy_player_views, ordinary_views, public_player_views


@dataclass(frozen=True)
class ExactAnalysis:
    """The exact joint distribution plus derived lemma quantities.

    ``dist`` is a columnar :class:`TableDistribution` by default (the
    dict :class:`JointDistribution` oracle when built with
    ``kernel="reference"``); both expose the same API, so every lemma
    quantity below is kernel-agnostic.  In exact mode ``expected_mu``
    and ``error_probability`` are :class:`~fractions.Fraction`.
    """

    hard: HardDistribution
    dist: TableDistribution | JointDistribution
    expected_mu: float | Fraction  # E |M^U_π|
    error_probability: float | Fraction  # Pr[output not maximal matching]
    worst_case_bits: int  # max message length over players and outcomes

    # ------------------------------------------------------------------
    # Variable-name helpers
    # ------------------------------------------------------------------
    def m_vars(self, j: int) -> list[str]:
        return [f"M_{i}_{j}" for i in range(self.hard.k)]

    @property
    def transcript_vars(self) -> list[str]:
        return ["PiP"] + [f"PiU_{i}" for i in range(self.hard.k)]

    # ------------------------------------------------------------------
    # Lemma 3.3
    # ------------------------------------------------------------------
    @cached_property
    def _conditionals(self) -> tuple[tuple, ...]:
        """(j, Pr[J = j], dist | J = j) for every j of positive mass —
        each conditional is computed once and shared by every lemma."""
        out = []
        for j in range(self.hard.t):
            p_j = self.dist.probability(J=j)
            if p_j > 0:
                out.append((j, p_j, self.dist.condition(J=j)))
        return tuple(out)

    @cached_property
    def information_revealed(self) -> float:
        """I(M_{1,J},...,M_{k,J} ; Π | Σ, J), computed as E_j of the
        conditional mutual information given J = j."""
        total = 0.0
        for j, p_j, cond in self._conditionals:
            total += p_j * cond.mutual_information(
                self.m_vars(j), self.transcript_vars
            )
        return total

    @property
    def lemma33_implied_bound(self) -> float:
        """The proof's quantitative RHS: E|M^U| - Pr[err]·k·r - 1."""
        kr = self.hard.k * self.hard.r
        return self.expected_mu - self.error_probability * kr - 1.0

    def lemma33_holds(self) -> bool:
        return self.information_revealed >= self.lemma33_implied_bound - 1e-6

    # ------------------------------------------------------------------
    # Lemma 3.4
    # ------------------------------------------------------------------
    @cached_property
    def public_entropy(self) -> float:
        """H(Π(P))."""
        return self.dist.entropy(["PiP"])

    @cached_property
    def _unique_informations(self) -> tuple[float, ...]:
        total = [0.0] * self.hard.k
        for j, p_j, cond in self._conditionals:
            for i in range(self.hard.k):
                total[i] += p_j * cond.mutual_information(
                    [f"M_{i}_{j}"], [f"PiU_{i}"]
                )
        return tuple(total)

    def unique_information(self, i: int) -> float:
        """I(M_{i,J} ; Π(U_i) | Σ, J), computed once per copy."""
        return self._unique_informations[i]

    @property
    def lemma34_lhs(self) -> float:
        return self.information_revealed

    @cached_property
    def lemma34_rhs(self) -> float:
        return self.public_entropy + sum(
            self.unique_information(i) for i in range(self.hard.k)
        )

    def lemma34_holds(self) -> bool:
        return self.lemma34_lhs <= self.lemma34_rhs + 1e-6

    # ------------------------------------------------------------------
    # Lemma 3.5
    # ------------------------------------------------------------------
    @cached_property
    def _unique_entropies(self) -> tuple[float, ...]:
        return tuple(self.dist.entropy([f"PiU_{i}"]) for i in range(self.hard.k))

    def unique_entropy(self, i: int) -> float:
        """H(Π(U_i)), computed once per copy."""
        return self._unique_entropies[i]

    def lemma35_holds(self, i: int) -> bool:
        return (
            self.unique_information(i)
            <= self.unique_entropy(i) / self.hard.t + 1e-6
        )

    def lemma35_all_hold(self) -> bool:
        return all(self.lemma35_holds(i) for i in range(self.hard.k))

    # ------------------------------------------------------------------
    # Theorem 1 algebra on the measured quantities
    # ------------------------------------------------------------------
    @property
    def capacity_upper_bound(self) -> float:
        """The proof's capacity bound |P|·b + (k·N/t)·b at the protocol's
        measured worst-case message length b."""
        hd = self.hard
        return self.worst_case_bits * (hd.num_public + hd.k * hd.N / hd.t)


class _CopyTable(NamedTuple):
    """Copy i's unique players at one (j*, row i of the indicator table)."""

    views: dict[int, VertexView]  # by RS vertex
    messages: tuple[Message, ...]  # Π(U_i), by ascending RS vertex
    bits: int  # the longest of those messages


def analyze_protocol(
    hard: HardDistribution,
    protocol: SketchProtocol,
    coins: PublicCoins,
    sigma: tuple[int, ...] | None = None,
    *,
    kernel: str = "table",
    exact: bool = False,
) -> ExactAnalysis:
    """Enumerate the joint distribution of one deterministic protocol.

    ``coins`` fixes the public randomness (Yao averaging); ``sigma``
    defaults to the identity permutation.  ``kernel`` selects the
    distribution implementation — ``"table"`` streams each enumerated
    outcome straight into columnar :class:`TableBuilder` rows (interned
    message codes, no tuple pmf is ever materialized), while
    ``"reference"`` rebuilds the original dict pmf for differential
    checks.  ``exact`` (table kernel only) keeps every probability a
    :class:`~fractions.Fraction` — each outcome has exact mass
    ``1 / (t · 2^(k·t·r))``, so expected values and lemma inputs carry
    no float rounding.

    With the coins fixed, ``protocol.sketch`` and ``protocol.decode``
    are pure functions of their inputs (the :class:`SketchProtocol`
    contract), so each distinct piece of work runs once per call:

    * every distinct player view is sketched once;
    * copy i's unique players and their Π(U_i) messages depend only on
      (j*, row i of the indicator table) — Lemma 3.5's per-copy direct
      sum — so they are built once per distinct row;
    * the referee decodes each distinct input once; correctness and
      |M^U_π| are still evaluated on every outcome's own graph.

    Rows, their order and every probability are exactly those of
    sketching and decoding every outcome from scratch.
    """
    if exact and kernel != "table":
        raise ValueError("exact mode requires the table kernel")
    if kernel not in ("table", "reference"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if sigma is None:
        sigma = identity_sigma(hard)
    k, t, n = hard.k, hard.t, hard.n

    m_names = [f"M_{i}_{j}" for i in range(k) for j in range(t)]
    names = ["J", *m_names, "PiP", *[f"PiU_{i}" for i in range(k)], "O", "MU"]

    pmf: dict[tuple, float] = {}
    builder = TableBuilder(names, exact=exact) if kernel == "table" else None
    zero = Fraction(0) if exact else 0.0
    expected_mu = zero
    error_prob = zero
    worst_bits = 0
    tables = list(enumerate_indicator_tables(hard))
    outcomes = t * len(tables)
    prob = Fraction(1, outcomes) if exact else 1.0 / outcomes

    sketches: dict[VertexView, Message] = {}

    def sketch(view: VertexView) -> Message:
        message = sketches.get(view)
        if message is None:
            message = sketches[view] = protocol.sketch(view, coins)
        return message

    copies: dict[tuple, _CopyTable] = {}  # keyed by (j*, i, row i)
    # Referee input, as (vertex, message) items in insertion order -> the
    # normalized output pairs.
    decoded: dict[tuple, frozenset] = {}

    with obs.span("lemma.analyze", protocol=protocol.name, outcomes=outcomes):
        for j_star in range(t):
            for table in tables:
                instance = DMMInstance(
                    hard=hard, j_star=j_star, sigma=sigma, indicators=table
                )
                public = public_player_views(instance)
                # Messages are hashable packed bytes, so they key the pmf
                # directly — no per-bit tuples are ever materialized.
                pi_p = tuple(sketch(view) for view in public.values())
                copy_tables = []
                for i in range(k):
                    key = (j_star, i, table[i])
                    entry = copies.get(key)
                    if entry is None:
                        views = copy_player_views(instance, i)
                        messages = tuple(sketch(views[v]) for v in sorted(views))
                        bits = max((m.num_bits for m in messages), default=0)
                        entry = copies[key] = _CopyTable(views, messages, bits)
                    copy_tables.append(entry)
                worst_bits = max(
                    worst_bits,
                    max((m.num_bits for m in pi_p), default=0),
                    *(entry.bits for entry in copy_tables),
                )

                # Referee: the ordinary-model players (Remark: extra copies
                # of public vertices are ignored), plus free (sigma, j*).
                referee = ordinary_views(
                    instance, public, (entry.views for entry in copy_tables)
                )
                received = tuple((v, sketch(view)) for v, view in referee.items())
                output_pairs = decoded.get(received)
                if output_pairs is None:
                    output = protocol.decode(n, dict(received), coins)
                    output_pairs = decoded[received] = frozenset(
                        normalize_edge(u, v) for u, v in output
                    )
                slots = set()
                for i in range(k):
                    slots.update(instance.special_slot_pairs(i))
                mu = len(output_pairs & slots)
                correct = is_maximal_matching(instance.graph, output_pairs)

                expected_mu += prob * mu
                if not correct:
                    error_prob += prob

                row = (
                    j_star,
                    *(table[i][j] for i in range(k) for j in range(t)),
                    pi_p,
                    *(entry.messages for entry in copy_tables),
                    1 if correct else 0,
                    mu,
                )
                if builder is not None:
                    # Every (j*, indicator table) pair is a distinct row
                    # (the indicators are part of the outcome), so rows
                    # stream in with uniform weight and merge trivially.
                    builder.add(row, prob)
                else:
                    pmf[row] = pmf.get(row, 0.0) + prob
    obs.count(LEMMA_OUTCOMES, outcomes, protocol=protocol.name)
    obs.count(LEMMA_SKETCHES, len(sketches), protocol=protocol.name)
    obs.count(LEMMA_DECODES, len(decoded), protocol=protocol.name)

    if builder is not None:
        dist = builder.build()
    else:
        dist = JointDistribution(names, pmf)
    return ExactAnalysis(
        hard=hard,
        dist=dist,
        expected_mu=expected_mu,
        error_probability=error_prob,
        worst_case_bits=worst_bits,
    )
