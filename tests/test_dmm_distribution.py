"""Tests for the hard distribution D_MM (params, sampling, bookkeeping)."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import cache as engine_cache
from repro.graphs import FrozenGraph, matched_vertices, normalize_edge
from repro.lowerbound import (
    DMMInstance,
    HardDistribution,
    enumerate_indicator_tables,
    identity_sigma,
    micro_distribution,
    paper_scale_distribution,
    sample_dmm,
    sample_dmm_family,
    scaled_distribution,
    unique_player_views,
)
from repro.rsgraphs import RSGraph, verify_rs_graph


class TestParameters:
    def test_scaled_distribution_shapes(self):
        hd = scaled_distribution(m=12, k=3)
        assert hd.n == hd.N - 2 * hd.r + 2 * hd.r * hd.k
        assert hd.num_public == hd.N - 2 * hd.r
        assert hd.num_unique == 2 * hd.r * hd.k
        assert hd.k == 3

    def test_paper_scale_sets_k_equal_t(self):
        hd = paper_scale_distribution(m=8)
        assert hd.k == hd.t

    def test_micro_distribution_valid_rs(self):
        hd = micro_distribution(r=2, t=3, k=2)
        assert verify_rs_graph(hd.rs.graph, hd.rs.matchings, r=2)
        assert hd.N == 2 * 2 * 3
        assert hd.t == 3

    def test_micro_rejects_bad_params(self):
        with pytest.raises(ValueError):
            micro_distribution(r=0)

    def test_rejects_nonuniform_rs(self):
        from repro.rsgraphs import sum_class_rs_graph

        rs = sum_class_rs_graph(16)
        if not rs.is_uniform:
            with pytest.raises(ValueError):
                HardDistribution(rs=rs, k=2)

    def test_rejects_bad_k(self):
        hd = micro_distribution()
        with pytest.raises(ValueError):
            HardDistribution(rs=hd.rs, k=0)

    def test_claim31_numbers(self):
        hd = micro_distribution(r=2, t=2, k=4)
        assert hd.claim31_threshold == 2.0
        assert 0 < hd.claim31_probability_bound < 1


class TestSampling:
    def _hd(self):
        return scaled_distribution(m=10, k=3)

    def test_sample_is_valid_instance(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(0))
        assert 0 <= inst.j_star < hd.t
        assert sorted(inst.sigma) == list(range(hd.n))

    def test_graph_on_n_labels(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(1))
        assert inst.graph.num_vertices() == hd.n
        assert inst.graph.vertices == frozenset(range(hd.n))

    def test_public_unique_partition(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(2))
        labels = set(inst.public_labels)
        for i in range(hd.k):
            ulabels = inst.unique_labels(i)
            assert len(ulabels) == 2 * hd.r
            assert not (labels & ulabels)
            labels |= ulabels
        assert labels == set(range(hd.n))

    def test_unique_labels_disjoint_across_copies(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(3))
        for i in range(hd.k):
            for i2 in range(i + 1, hd.k):
                assert not (inst.unique_labels(i) & inst.unique_labels(i2))

    def test_label_in_copy_consistency(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(4))
        public_rs = inst.public_rs_vertices
        # Public vertices share one label across all copies.
        for v in public_rs[:5]:
            labels = {inst.label_in_copy(i, v) for i in range(hd.k)}
            assert len(labels) == 1
        # V* vertices get distinct labels per copy.
        for v in inst.v_star[:4]:
            labels = {inst.label_in_copy(i, v) for i in range(hd.k)}
            assert len(labels) == hd.k

    def test_copy_edges_match_indicators(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(5))
        for i in range(hd.k):
            expected = sum(
                bin(inst.indicators[i][j]).count("1") for j in range(hd.t)
            )
            assert len(inst.copy_edges(i)) == expected

    def test_graph_is_union_of_copies(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(6))
        union = set()
        for i in range(hd.k):
            union.update(inst.copy_edges(i))
        assert inst.graph.edge_set() == frozenset(union)

    def test_special_edges_unique_unique(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(7))
        for i in range(hd.k):
            for u, v in inst.special_surviving_edges(i):
                assert inst.is_unique_label(u)
                assert inst.is_unique_label(v)

    def test_special_slots_all_r(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(8))
        for i in range(hd.k):
            assert len(inst.special_slot_pairs(i)) == hd.r

    def test_union_special_is_matching(self):
        from repro.graphs import is_matching

        hd = self._hd()
        inst = sample_dmm(hd, random.Random(9))
        assert is_matching(inst.union_special_matching)

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_unique_unique_edges_are_exactly_survivors(self, seed):
        """The induced property: G's unique-unique edges = ∪ M_i."""
        hd = scaled_distribution(m=8, k=2)
        inst = sample_dmm(hd, random.Random(seed))
        uu = {
            e
            for e in inst.graph.edges()
            if inst.is_unique_label(e[0]) and inst.is_unique_label(e[1])
        }
        assert uu == inst.union_special_matching


class TestInstanceValidation:
    def test_rejects_bad_j_star(self):
        hd = micro_distribution()
        with pytest.raises(ValueError):
            DMMInstance(hd, j_star=99, sigma=identity_sigma(hd), indicators=((0, 0), (0, 0)))

    def test_rejects_bad_sigma(self):
        hd = micro_distribution()
        with pytest.raises(ValueError):
            DMMInstance(hd, 0, sigma=(0,) * hd.n, indicators=((0, 0), (0, 0)))

    def test_rejects_bad_indicator_shape(self):
        hd = micro_distribution()
        with pytest.raises(ValueError):
            DMMInstance(hd, 0, identity_sigma(hd), indicators=((0,), (0,)))

    def test_rejects_oversized_mask(self):
        hd = micro_distribution(r=1, t=2, k=2)
        with pytest.raises(ValueError):
            DMMInstance(hd, 0, identity_sigma(hd), indicators=((4, 0), (0, 0)))


class TestEnumeration:
    def test_count(self):
        hd = micro_distribution(r=1, t=2, k=2)
        tables = list(enumerate_indicator_tables(hd))
        assert len(tables) == 2 ** (1 * 2 * 2)
        assert len(set(tables)) == len(tables)

    def test_shapes(self):
        hd = micro_distribution(r=2, t=2, k=1)
        for table in enumerate_indicator_tables(hd):
            assert len(table) == 1
            assert len(table[0]) == 2
            assert all(0 <= mask < 4 for mask in table[0])

    def test_infeasible_guard(self):
        hd = micro_distribution(r=3, t=3, k=3)  # 27 bits
        with pytest.raises(ValueError):
            list(enumerate_indicator_tables(hd))


class TestShapeComputedOnce:
    """The RS shape (r, t, uniformity) is computed once per distribution,
    not once per instance, edge, or mask."""

    def test_matching_sizes_stays_a_plain_property(self):
        # The benchmark's traced pass wraps its ``fget`` to count calls.
        assert isinstance(RSGraph.__dict__["matching_sizes"], property)

    @staticmethod
    def _sizes_calls(monkeypatch, trials: int) -> int:
        """matching_sizes calls to build a fresh distribution, sample a
        ``trials``-instance family, and read every instance's graph."""
        shared = scaled_distribution(m=10, k=3).rs
        sizes = RSGraph.__dict__["matching_sizes"]
        calls = 0

        def counted(rs):
            nonlocal calls
            calls += 1
            return sizes.fget(rs)

        monkeypatch.setattr(RSGraph, "matching_sizes", property(counted))
        monkeypatch.setattr(
            engine_cache, "_default_cache", engine_cache.ConstructionCache(enabled=False)
        )
        # A new RSGraph object, so no cached shape carries over.
        hard = HardDistribution(
            rs=RSGraph(graph=shared.graph, matchings=shared.matchings), k=3
        )
        for inst in sample_dmm_family(hard, trials, base_seed=5):
            assert inst.graph.num_vertices() == hard.n
        monkeypatch.undo()
        return calls

    def test_matching_sizes_calls_do_not_grow_with_instances(self, monkeypatch):
        one = self._sizes_calls(monkeypatch, 1)
        many = self._sizes_calls(monkeypatch, 64)
        assert 1 <= many <= one

    def test_pickle_round_trip_with_warm_caches(self):
        hd = scaled_distribution(m=10, k=3)
        inst = sample_dmm(hd, random.Random(11))
        # Warm every cache before pickling.
        token = hd.cache_token
        graph = inst.graph
        inst.label_in_copy(0, inst.v_star[0])
        assert hd.n == hd.N - 2 * hd.r + 2 * hd.r * hd.k
        hd2 = pickle.loads(pickle.dumps(hd))
        inst2 = pickle.loads(pickle.dumps(inst))
        assert hd2 == hd
        assert hd2.cache_token == token
        assert inst2 == inst
        assert inst2.hard.cache_token == token
        assert inst2.graph == graph
        assert inst2.label_in_copy(0, inst.v_star[0]) == inst.label_in_copy(
            0, inst.v_star[0]
        )


class TestLabelTablesDifferential:
    """The per-copy label tables against the paper's closed form (steps
    4a/4b), written out independently of the instance's bookkeeping."""

    @given(
        m=st.integers(4, 10),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_tables_match_closed_form(self, m, k, seed):
        hd = scaled_distribution(m=m, k=k)
        inst = sample_dmm(hd, random.Random(seed))
        rs, sigma = hd.rs, inst.sigma
        star = sorted(matched_vertices(rs.matchings[inst.j_star]))
        public = [v for v in sorted(rs.graph.vertices) if v not in star]
        base = hd.N - 2 * hd.r

        def label(i, v):
            if v in public:
                return sigma[public.index(v)]
            return sigma[base + i * 2 * hd.r + star.index(v)]

        def survivors(i):
            for j, matching in enumerate(rs.matchings):
                for e, (u, v) in enumerate(matching):
                    if (inst.indicators[i][j] >> e) & 1:
                        yield u, v

        all_edges = []
        views = unique_player_views(inst)
        assert set(views) == {(i, v) for i in range(k) for v in rs.graph.vertices}
        for i in range(k):
            for v in rs.graph.vertices:
                assert inst.label_in_copy(i, v) == label(i, v)
            edges = [normalize_edge(label(i, u), label(i, v)) for u, v in survivors(i)]
            assert inst.copy_edges(i) == edges
            all_edges.extend(edges)
            assert inst.special_slot_pairs(i) == [
                normalize_edge(label(i, u), label(i, v))
                for u, v in rs.matchings[inst.j_star]
            ]
            neighbors = {v: set() for v in rs.graph.vertices}
            for u, v in survivors(i):
                neighbors[u].add(label(i, v))
                neighbors[v].add(label(i, u))
            for v, expected in neighbors.items():
                view = views[(i, v)]
                assert view.n == hd.n
                assert view.vertex == label(i, v)
                assert view.neighbors == frozenset(expected)
        assert inst.graph == FrozenGraph.from_edges(range(hd.n), all_edges)
        for bad in (-1, k):
            with pytest.raises(ValueError):
                inst.label_in_copy(bad, public[0])
