"""Exact verification of Lemmas 3.3-3.5 on enumerable D_MM instances.

For each protocol below we enumerate the full joint distribution of
(J, indicators, transcript), so every inequality is checked *exactly*
(up to float tolerance), for correct protocols and for failing ones.
"""

import pytest

from repro.lowerbound import analyze_protocol, micro_distribution
from repro.model import PublicCoins, SketchProtocol
from repro.protocols import (
    FullNeighborhoodMatching,
    SampledEdgesMatching,
)

MICRO = micro_distribution(r=1, t=2, k=2)  # 2^(1*2*2) * 2 = 32 outcomes
COINS = PublicCoins(seed=1234)


@pytest.fixture(scope="module")
def full_analysis():
    return analyze_protocol(MICRO, FullNeighborhoodMatching(), COINS)


@pytest.fixture(scope="module")
def cheap_analysis():
    return analyze_protocol(MICRO, SampledEdgesMatching(0), COINS)


class TestFullProtocolAnalysis:
    def test_zero_error(self, full_analysis):
        assert full_analysis.error_probability == pytest.approx(0.0)

    def test_expected_mu_positive(self, full_analysis):
        # E|M^U| = expected surviving special edges picked by greedy;
        # each of the k*r = 2 special slots survives w.p. 1/2 and, when it
        # survives, must be matched (its endpoints have no other edges).
        assert full_analysis.expected_mu == pytest.approx(1.0)

    def test_lemma33_quantitative(self, full_analysis):
        assert full_analysis.lemma33_holds()

    def test_information_counts_special_bits(self, full_analysis):
        # The transcript reveals the whole graph: I(M;Π|J) = k*r bits.
        kr = MICRO.k * MICRO.r
        assert full_analysis.information_revealed == pytest.approx(float(kr))

    def test_lemma34(self, full_analysis):
        assert full_analysis.lemma34_holds()

    def test_lemma35_every_copy(self, full_analysis):
        assert full_analysis.lemma35_all_hold()

    def test_capacity_exceeds_information(self, full_analysis):
        """The combined Theorem-1 inequality: information <= capacity.
        A protocol that succeeds must pay for it in message length."""
        assert full_analysis.information_revealed <= (
            full_analysis.capacity_upper_bound + 1e-6
        )


class TestCheapProtocolAnalysis:
    def test_always_errs(self, cheap_analysis):
        # Budget 0: empty sketches; the referee outputs an empty matching,
        # which is maximal only when every special edge was dropped AND
        # public matchings vanished; error probability is large.
        assert cheap_analysis.error_probability > 0.5

    def test_no_information(self, cheap_analysis):
        assert cheap_analysis.information_revealed == pytest.approx(0.0)

    def test_lemma33_still_consistent(self, cheap_analysis):
        """Zero information forces the implied bound to be non-positive:
        the contrapositive of Lemma 3.3 in action."""
        assert cheap_analysis.lemma33_implied_bound <= 1e-9
        assert cheap_analysis.lemma33_holds()

    def test_lemma34_and_35(self, cheap_analysis):
        assert cheap_analysis.lemma34_holds()
        assert cheap_analysis.lemma35_all_hold()

    def test_worst_case_bits_zero(self, cheap_analysis):
        # encode_vertex_set of an empty list still writes a varint header.
        assert cheap_analysis.worst_case_bits <= 8


class TestIntermediateBudgets:
    @pytest.mark.parametrize("budget", [1, 2])
    def test_lemma_chain_holds_for_partial_protocols(self, budget):
        analysis = analyze_protocol(MICRO, SampledEdgesMatching(budget), COINS)
        assert analysis.lemma33_holds()
        assert analysis.lemma34_holds()
        assert analysis.lemma35_all_hold()

    def test_information_monotone_in_budget(self):
        infos = [
            analyze_protocol(MICRO, SampledEdgesMatching(b), COINS).information_revealed
            for b in (0, 1, 4)
        ]
        assert infos[0] <= infos[1] + 1e-9 <= infos[2] + 2e-9

    def test_error_decreases_with_budget(self):
        errors = [
            analyze_protocol(MICRO, SampledEdgesMatching(b), COINS).error_probability
            for b in (0, 4)
        ]
        assert errors[1] < errors[0]


class TestLargerMicroInstances:
    def test_r2_instance(self):
        hard = micro_distribution(r=2, t=2, k=1)  # 2^(2*2) * 2 = 32 outcomes
        analysis = analyze_protocol(hard, FullNeighborhoodMatching(), COINS)
        assert analysis.error_probability == pytest.approx(0.0)
        assert analysis.lemma33_holds()
        assert analysis.lemma34_holds()
        assert analysis.lemma35_all_hold()

    def test_t3_instance(self):
        hard = micro_distribution(r=1, t=3, k=2)  # 2^6 * 3 = 192 outcomes
        analysis = analyze_protocol(hard, FullNeighborhoodMatching(), COINS)
        assert analysis.lemma33_holds()
        assert analysis.lemma34_holds()
        assert analysis.lemma35_all_hold()
        # Direct-sum effect: each copy's unique players reveal exactly
        # r = 1 bit about their special matching, and H(Π(U_i)) spans all
        # t matchings, so the 1/t factor leaves room.
        for i in range(hard.k):
            assert analysis.unique_information(i) <= (
                analysis.unique_entropy(i) / hard.t + 1e-6
            )


class TestNonIdentitySigma:
    """The lemmas condition on Σ = σ; they must hold for every σ."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lemma_chain_under_shuffled_sigma(self, seed):
        import random

        hard = micro_distribution(r=1, t=2, k=2)
        sigma = list(range(hard.n))
        random.Random(seed).shuffle(sigma)
        for protocol in (FullNeighborhoodMatching(), SampledEdgesMatching(1)):
            a = analyze_protocol(hard, protocol, COINS, sigma=tuple(sigma))
            assert a.lemma33_holds()
            assert a.lemma34_holds()
            assert a.lemma35_all_hold()

    def test_full_protocol_information_is_sigma_invariant(self):
        import random

        hard = micro_distribution(r=1, t=2, k=2)
        infos = []
        for seed in (4, 5):
            sigma = list(range(hard.n))
            random.Random(seed).shuffle(sigma)
            a = analyze_protocol(
                hard, FullNeighborhoodMatching(), COINS, sigma=tuple(sigma)
            )
            infos.append(a.information_revealed)
        # The full protocol always reveals the complete graph: exactly
        # k*r bits about the special indicators, whatever the labels.
        assert all(abs(i - hard.k * hard.r) < 1e-9 for i in infos)


class TestProofEquationDetails:
    """Fine-grained checks of individual equations inside the proofs."""

    def test_eq1_unconditional_indicator_entropy(self, full_analysis):
        """Eq (1): conditioned on (Σ, J) but not Π, the special
        indicators are uniform on 2^(kr): H(M_{1,J}..M_{k,J} | J) = kr."""
        hard = full_analysis.hard
        total = 0.0
        for j in range(hard.t):
            cond = full_analysis.dist.condition(J=j)
            total += full_analysis.dist.probability(J=j) * cond.entropy(
                full_analysis.m_vars(j)
            )
        assert total == pytest.approx(float(hard.k * hard.r))

    def test_output_correctness_entropy_at_most_one_bit(self, full_analysis):
        """H(O) <= 1, the cheap term in Eq (2)."""
        assert full_analysis.dist.entropy(["O"]) <= 1.0 + 1e-9

    def test_claim32_for_low_error_protocol(self, full_analysis):
        """Claim 3.2: a protocol with error <= 0.01 has E|M^U| >= kr/5."""
        hard = full_analysis.hard
        assert full_analysis.error_probability <= 0.01
        assert full_analysis.expected_mu >= hard.k * hard.r / 5.0

    def test_indicators_independent_of_j(self, full_analysis):
        """The subsampling coins are independent of the special index."""
        hard = full_analysis.hard
        for i in range(hard.k):
            for j in range(hard.t):
                assert full_analysis.dist.is_independent([f"M_{i}_{j}"], ["J"])

    def test_unique_transcripts_independent_across_copies(self, full_analysis):
        """The engine behind Lemma 3.4: Π(U_i) ⊥ Π(U_i') given (Σ, J)
        since the copies are subsampled independently."""
        cond = full_analysis.dist.condition(J=0)
        assert cond.is_independent(["PiU_0"], ["PiU_1"])

    def test_mu_never_exceeds_kr(self, full_analysis, cheap_analysis):
        kr = MICRO.k * MICRO.r
        for analysis in (full_analysis, cheap_analysis):
            for outcome, prob in analysis.dist.pmf.items():
                mu = outcome[-1]
                assert 0 <= mu <= kr


class TestInformationInvariances:
    """Sanity properties of the exact information accounting."""

    def test_information_invariant_under_message_relabeling(self):
        """I(M;Π|Σ,J) depends only on the partition a protocol's messages
        induce, not on the bit patterns — flipping every message bit
        changes nothing."""
        from repro.model import Message, SketchProtocol

        class Flipped(SketchProtocol):
            name = "flipped-sampled"

            def __init__(self, inner):
                self.inner = inner

            def sketch(self, view, coins):
                m = self.inner.sketch(view, coins)
                return Message(bits=tuple(1 - b for b in m.bits))

            def decode(self, n, sketches, coins):
                unflipped = {
                    v: Message(bits=tuple(1 - b for b in m.bits))
                    for v, m in sketches.items()
                }
                return self.inner.decode(n, unflipped, coins)

        base = SampledEdgesMatching(1)
        a = analyze_protocol(MICRO, base, COINS)
        b = analyze_protocol(MICRO, Flipped(base), COINS)
        assert b.information_revealed == pytest.approx(a.information_revealed)
        assert b.error_probability == pytest.approx(a.error_probability)
        assert b.public_entropy == pytest.approx(a.public_entropy)
        for i in range(MICRO.k):
            assert b.unique_information(i) == pytest.approx(a.unique_information(i))

    def test_padding_messages_changes_bits_not_information(self):
        """Appending a constant bit to every message raises the cost but
        not the revealed information — bits and information are distinct
        resources, which is the whole subject of the paper."""
        from repro.model import Message, SketchProtocol

        class Padded(SketchProtocol):
            name = "padded-sampled"

            def __init__(self, inner):
                self.inner = inner

            def sketch(self, view, coins):
                m = self.inner.sketch(view, coins)
                return Message(bits=m.bits + (0,))

            def decode(self, n, sketches, coins):
                trimmed = {
                    v: Message(bits=m.bits[:-1]) for v, m in sketches.items()
                }
                return self.inner.decode(n, trimmed, coins)

        base = SampledEdgesMatching(1)
        a = analyze_protocol(MICRO, base, COINS)
        b = analyze_protocol(MICRO, Padded(base), COINS)
        assert b.worst_case_bits == a.worst_case_bits + 1
        assert b.information_revealed == pytest.approx(a.information_revealed)


class TestPackedTranscriptKeys:
    """The pmf keys transcripts by packed Messages (hashable bytes); the
    joint distribution must be identical to the historical per-bit-tuple
    keying — same groups, same masses."""

    def test_transcript_entries_are_packed_messages(self, full_analysis):
        from repro.model import Message

        names = list(full_analysis.dist.variables)
        pi_p_index = names.index("PiP")
        for outcome in full_analysis.dist.pmf:
            assert all(isinstance(m, Message) for m in outcome[pi_p_index])
            for i in range(MICRO.k):
                group = outcome[names.index(f"PiU_{i}")]
                assert all(isinstance(m, Message) for m in group)

    def test_distribution_identical_under_bit_tuple_regrouping(
        self, full_analysis, cheap_analysis
    ):
        """Re-keying every Message as its per-bit tuple neither merges nor
        splits any outcome: the packed representation is a bijective
        relabeling, so all Lemma 3.3–3.5 quantities are unchanged."""
        from repro.model import Message

        def unpack(value):
            if isinstance(value, Message):
                return value.bits
            if isinstance(value, tuple):
                return tuple(unpack(x) for x in value)
            return value

        for analysis in (full_analysis, cheap_analysis):
            regrouped = {}
            for outcome, prob in analysis.dist.pmf.items():
                key = unpack(outcome)
                regrouped[key] = regrouped.get(key, 0.0) + prob
            assert len(regrouped) == len(analysis.dist.pmf)
            assert sorted(regrouped.values()) == pytest.approx(
                sorted(analysis.dist.pmf.values())
            )


class TestExactVsMonteCarlo:
    """The exact enumeration and Monte-Carlo sampling are independent
    code paths; their error probabilities must agree."""

    def test_error_probability_matches_sampling(self):
        import random

        from repro.lowerbound import DMMInstance, identity_sigma
        from repro.model import run_protocol
        from repro.graphs import is_maximal_matching, normalize_edge

        hard = MICRO
        protocol = SampledEdgesMatching(0)
        exact = analyze_protocol(hard, protocol, COINS)

        rng = random.Random(7)
        trials = 1500
        errors = 0
        sigma = identity_sigma(hard)
        for _ in range(trials):
            indicators = tuple(
                tuple(rng.getrandbits(hard.r) for _ in range(hard.t))
                for _ in range(hard.k)
            )
            inst = DMMInstance(
                hard=hard,
                j_star=rng.randrange(hard.t),
                sigma=sigma,
                indicators=indicators,
            )
            run = run_protocol(inst.graph, protocol, COINS, n=hard.n)
            output = {normalize_edge(u, v) for u, v in run.output}
            if not is_maximal_matching(inst.graph, output):
                errors += 1
        estimate = errors / trials
        assert estimate == pytest.approx(exact.error_probability, abs=0.03)

    def test_expected_mu_matches_sampling(self):
        import random

        from repro.lowerbound import DMMInstance, identity_sigma
        from repro.model import run_protocol
        from repro.graphs import normalize_edge

        hard = MICRO
        protocol = FullNeighborhoodMatching()
        exact = analyze_protocol(hard, protocol, COINS)

        rng = random.Random(8)
        trials = 1500
        total_mu = 0
        sigma = identity_sigma(hard)
        for _ in range(trials):
            indicators = tuple(
                tuple(rng.getrandbits(hard.r) for _ in range(hard.t))
                for _ in range(hard.k)
            )
            inst = DMMInstance(
                hard=hard,
                j_star=rng.randrange(hard.t),
                sigma=sigma,
                indicators=indicators,
            )
            run = run_protocol(inst.graph, protocol, COINS, n=hard.n)
            output = {normalize_edge(u, v) for u, v in run.output}
            slots = set()
            for i in range(hard.k):
                slots.update(inst.special_slot_pairs(i))
            total_mu += len(output & slots)
        assert total_mu / trials == pytest.approx(exact.expected_mu, abs=0.05)


# ----------------------------------------------------------------------
# The memoized enumeration: work counts and bit identity
# ----------------------------------------------------------------------
def _from_scratch(hard, protocol, coins, sigma=None, *, kernel="table", exact=False):
    """Every outcome sketched and decoded from scratch — the enumeration
    before memoization, kept as the oracle of ``analyze_protocol``.

    Returns the analysis fields plus the distinct player views and the
    distinct referee inputs the enumeration met.
    """
    from fractions import Fraction

    from repro.graphs import is_maximal_matching, normalize_edge
    from repro.infotheory import JointDistribution, TableBuilder
    from repro.lowerbound import (
        DMMInstance,
        enumerate_indicator_tables,
        identity_sigma,
        player_split,
        vertex_player_views,
    )

    if sigma is None:
        sigma = identity_sigma(hard)
    k, t, n = hard.k, hard.t, hard.n
    m_names = [f"M_{i}_{j}" for i in range(k) for j in range(t)]
    names = ["J", *m_names, "PiP", *[f"PiU_{i}" for i in range(k)], "O", "MU"]
    pmf = {}
    builder = TableBuilder(names, exact=exact) if kernel == "table" else None
    expected_mu = error_prob = Fraction(0) if exact else 0.0
    worst_bits = 0
    views_seen, inputs_seen = set(), set()
    tables = list(enumerate_indicator_tables(hard))
    prob = Fraction(1, t * len(tables)) if exact else 1.0 / (t * len(tables))
    for j_star in range(t):
        for table in tables:
            instance = DMMInstance(
                hard=hard, j_star=j_star, sigma=sigma, indicators=table
            )
            split = player_split(instance)
            views_seen.update(split.public.values(), split.unique.values())
            pi_p = tuple(
                protocol.sketch(split.public[label], coins)
                for label in sorted(split.public)
            )
            pi_u = [
                tuple(
                    protocol.sketch(split.unique[(i, v)], coins)
                    for v in sorted(rs_v for (ci, rs_v) in split.unique if ci == i)
                )
                for i in range(k)
            ]
            worst_bits = max(
                worst_bits,
                max((m.num_bits for m in pi_p), default=0),
                max((m.num_bits for group in pi_u for m in group), default=0),
            )
            views = vertex_player_views(instance)
            views_seen.update(views.values())
            sketches = {v: protocol.sketch(view, coins) for v, view in views.items()}
            inputs_seen.add(tuple(sketches.items()))
            output = protocol.decode(n, sketches, coins)
            output_pairs = {normalize_edge(u, v) for u, v in output}
            slots = set()
            for i in range(k):
                slots.update(instance.special_slot_pairs(i))
            mu = len(output_pairs & slots)
            correct = is_maximal_matching(instance.graph, output_pairs)
            expected_mu += prob * mu
            if not correct:
                error_prob += prob
            outcome = (
                j_star,
                *(table[i][j] for i in range(k) for j in range(t)),
                pi_p,
                *pi_u,
                1 if correct else 0,
                mu,
            )
            if builder is not None:
                builder.add(outcome, prob)
            else:
                pmf[outcome] = pmf.get(outcome, 0.0) + prob
    dist = builder.build() if builder is not None else JointDistribution(names, pmf)
    return {
        "dist": dist,
        "expected_mu": expected_mu,
        "error_probability": error_prob,
        "worst_case_bits": worst_bits,
        "views": views_seen,
        "inputs": inputs_seen,
    }


class _Counting(SketchProtocol):
    """A protocol wrapper counting its sketch and decode calls."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.sketches = 0
        self.decodes = 0

    def sketch(self, view, coins):
        self.sketches += 1
        return self.inner.sketch(view, coins)

    def decode(self, n, sketches, coins):
        self.decodes += 1
        return self.inner.decode(n, sketches, coins)


MICRO_T3 = micro_distribution(r=1, t=3, k=2)
MICRO_T4 = micro_distribution(r=1, t=4, k=2)  # the L35 size of lemma-exact


@pytest.fixture(scope="module")
def t4_from_scratch():
    return _from_scratch(MICRO_T4, SampledEdgesMatching(1), COINS, exact=True)


def _assert_identical(analysis, oracle):
    assert analysis.dist.digest == oracle["dist"].digest
    assert analysis.expected_mu == oracle["expected_mu"]
    assert analysis.error_probability == oracle["error_probability"]
    assert analysis.worst_case_bits == oracle["worst_case_bits"]


class TestEnumerationWorkCounts:
    """Each distinct view is sketched once and each distinct referee input
    decoded once, however many outcomes share them."""

    def test_t4_sketches_each_distinct_view_once(self, t4_from_scratch):
        counting = _Counting(SampledEdgesMatching(1))
        analyze_protocol(MICRO_T4, counting, COINS, exact=True)
        assert len(t4_from_scratch["views"]) == 20
        assert counting.sketches == 20
        assert counting.decodes == len(t4_from_scratch["inputs"])
        assert counting.decodes < MICRO_T4.t * 2 ** (MICRO_T4.k * MICRO_T4.t)

    def test_t3_sketches_each_distinct_view_once(self):
        counting = _Counting(SampledEdgesMatching(1))
        analyze_protocol(MICRO_T3, counting, COINS)
        oracle = _from_scratch(MICRO_T3, SampledEdgesMatching(1), COINS)
        assert len(oracle["views"]) == 16
        assert counting.sketches == 16
        assert counting.decodes == len(oracle["inputs"])

    def test_every_lemma_quantity_conditions_on_j_at_most_t_times(
        self, monkeypatch
    ):
        from repro.infotheory import TableDistribution

        calls = []
        condition = TableDistribution.condition

        def counted(dist, **fixed):
            calls.append(fixed)
            return condition(dist, **fixed)

        monkeypatch.setattr(TableDistribution, "condition", counted)
        a = analyze_protocol(MICRO_T3, SampledEdgesMatching(1), COINS, exact=True)
        a.information_revealed
        a.lemma33_implied_bound
        a.lemma33_holds()
        a.public_entropy
        a.lemma34_lhs
        a.lemma34_rhs
        a.lemma34_holds()
        for i in range(MICRO_T3.k):
            a.unique_information(i)
            a.unique_entropy(i)
            a.lemma35_holds(i)
        a.lemma35_all_hold()
        a.capacity_upper_bound
        assert 0 < len(calls) <= MICRO_T3.t


class TestMemoizedEnumerationIsBitIdentical:
    """``analyze_protocol`` against the from-scratch enumeration: the same
    distribution digest and the same exact expectations."""

    @pytest.mark.parametrize(
        "protocol",
        [
            FullNeighborhoodMatching(),
            SampledEdgesMatching(2),
            SampledEdgesMatching(1),
            SampledEdgesMatching(0),
        ],
        ids=lambda p: p.name,
    )
    def test_suite_protocols_t3(self, protocol):
        analysis = analyze_protocol(MICRO_T3, protocol, COINS, exact=True)
        _assert_identical(
            analysis, _from_scratch(MICRO_T3, protocol, COINS, exact=True)
        )

    def test_sampled_t4(self, t4_from_scratch):
        analysis = analyze_protocol(
            MICRO_T4, SampledEdgesMatching(1), COINS, exact=True
        )
        _assert_identical(analysis, t4_from_scratch)

    def test_non_identity_sigma(self):
        import random

        sigma = list(range(MICRO_T3.n))
        random.Random(11).shuffle(sigma)
        sigma = tuple(sigma)
        assert sigma != tuple(range(MICRO_T3.n))
        protocol = SampledEdgesMatching(1)
        analysis = analyze_protocol(MICRO_T3, protocol, COINS, sigma, exact=True)
        _assert_identical(
            analysis, _from_scratch(MICRO_T3, protocol, COINS, sigma, exact=True)
        )

    def test_reference_kernel_pmf(self):
        protocol = SampledEdgesMatching(1)
        analysis = analyze_protocol(MICRO_T3, protocol, COINS, kernel="reference")
        oracle = _from_scratch(MICRO_T3, protocol, COINS, kernel="reference")
        assert analysis.dist.pmf == oracle["dist"].pmf
        assert analysis.dist.variables == oracle["dist"].variables
        assert analysis.expected_mu == oracle["expected_mu"]
        assert analysis.error_probability == oracle["error_probability"]
        assert analysis.worst_case_bits == oracle["worst_case_bits"]
