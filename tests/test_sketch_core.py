"""The vectorized sketch runtime: linearity, mergeability, bit identity.

Three layers of guarantees, all against executable oracles:

* ``L0FamilyState`` is a *linear* sketch — updates commute, merge equals
  the sketch of the summed input, the whole-graph incidence sum is the
  zero state, and a vertex subset's merged states equal a directly-built
  crossing-edge sketch (the identity the AGM referee relies on).
* ``L0Block`` recovery agrees with the historical per-level
  ``L0Sampler`` object chain on identical update streams.
* For every protocol in the registry and every sketch family,
  ``sketch_batch`` on a frozen graph is bit-identical to the per-view
  ``sketch`` oracle, player by player — the wire contract of
  :class:`repro.model.BatchSketchProtocol`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.model import PublicCoins, run_protocol, views_of
from repro.protocols.registry import make_protocol
from repro.sketches import (
    AGMConnectivity,
    AGMSpanningForest,
    ConnectivityCertificate,
    CrossingEdgeProtocol,
    DegeneracySketch,
    DensestSubgraphSketch,
    L0Block,
    L0Config,
    L0FamilyState,
    L0Sampler,
    PaletteSparsificationColoring,
    PrivateCoinColoring,
    SketchFamily,
    TriangleCountSketch,
    derive_family,
    edge_coordinate,
)

# Small dense label space so random graphs collide and repeat edges.
labels = st.integers(0, 9)
edge = st.tuples(labels, labels).filter(lambda e: e[0] != e[1])
graph_spec = st.tuples(st.lists(labels, max_size=6), st.lists(edge, max_size=18))
seeds = st.integers(0, 2**16)


def build_frozen(spec):
    vertices, edges = spec
    g = Graph(vertices=vertices)
    for u, v in edges:
        g.add_edge(u, v)
    return g.freeze()


# ----------------------------------------------------------------------
# Linearity / mergeability of the columnar family state
# ----------------------------------------------------------------------
CONFIG = L0Config.for_universe(100)
UPDATES = st.lists(
    st.tuples(st.integers(0, 99), st.integers(-3, 3)), max_size=20
)


def family_for(seed: int, num_labels: int = 2):
    coins = PublicCoins(seed=seed)
    return derive_family(
        CONFIG, coins, tuple(f"test/{i}" for i in range(num_labels)), magnitude=10
    )


def state_of(params, updates):
    state = L0FamilyState(params)
    for coord, delta in updates:
        state.update(coord, delta)
    return state


def arrays(state):
    return (
        list(state.totals),
        list(state.index_sums),
        list(state.fingerprints),
    )


@given(seeds, UPDATES, UPDATES)
def test_merge_is_sketch_of_summed_input(seed, ups_a, ups_b):
    params = family_for(seed)
    merged = state_of(params, ups_a).merge(state_of(params, ups_b))
    assert arrays(merged) == arrays(state_of(params, ups_a + ups_b))


@given(seeds, UPDATES)
def test_update_order_is_irrelevant(seed, updates):
    params = family_for(seed)
    shuffled = list(updates)
    random.Random(seed).shuffle(shuffled)
    assert arrays(state_of(params, updates)) == arrays(state_of(params, shuffled))


@given(seeds, UPDATES)
def test_negated_updates_cancel(seed, updates):
    params = family_for(seed)
    state = state_of(params, updates)
    negated = state_of(params, [(c, -d) for c, d in updates])
    assert state.merge(negated).is_zero()


@given(seeds, UPDATES)
def test_encode_decode_roundtrip(seed, updates):
    params = family_for(seed)
    state = state_of(params, updates)
    # magnitude=10 bounds single-update deltas, not the running sums;
    # skip streams that exceed the encodable range (encode refuses them).
    try:
        message = state.to_message()
    except ValueError:
        return
    assert message.num_bits == params.num_bits
    assert arrays(L0FamilyState.decode(message.reader(), params)) == arrays(state)


@given(seeds, UPDATES)
def test_block_recovery_matches_sampler_oracle(seed, updates):
    """L0Block over a decoded family column == the L0Sampler object chain."""
    coins = PublicCoins(seed=seed)
    params = family_for(seed)
    state = state_of(params, updates)
    for index, label in enumerate(params.labels):
        sampler = L0Sampler(CONFIG, coins, label)
        for coord, delta in updates:
            sampler.update(coord, delta)
        block = L0Block(params, index)
        block.accumulate(state)
        assert block.recover() == sampler.recover()


@given(graph_spec, seeds)
@settings(max_examples=30)
def test_whole_graph_incidence_sum_is_zero(spec, seed):
    """Each edge contributes +1 to one endpoint and -1 to the other, so
    the merge over all players is the sketch of the zero vector."""
    graph = build_frozen(spec)
    n = max(graph.vertices, default=0) + 1
    family = SketchFamily.incidence(
        L0Config.for_universe(max(n * n, 1)),
        PublicCoins(seed=seed),
        ("sum/0", "sum/1"),
        magnitude=max(n, 1),
    )
    states = list(family.build_states(graph, n).values())
    if not states:
        return
    total = states[0]
    for state in states[1:]:
        total = total.merge(state)
    assert total.is_zero()


@given(graph_spec, seeds, st.sets(labels, max_size=5))
@settings(max_examples=30)
def test_subset_merge_equals_crossing_edge_sketch(spec, seed, subset):
    """Merging a vertex subset's states leaves exactly the signed
    crossing edges — the identity AGM's Borůvka rounds decode with."""
    graph = build_frozen(spec)
    n = max(graph.vertices, default=0) + 1
    members = sorted(subset & graph.vertices)
    family = SketchFamily.incidence(
        L0Config.for_universe(max(n * n, 1)),
        PublicCoins(seed=seed),
        ("cross/0",),
        magnitude=max(n, 1),
    )
    states = family.build_states(graph, n)
    merged = family.empty_state()
    for v in members:
        merged = merged.merge(states[v])
    direct = family.empty_state()
    inside = set(members)
    for u, v in graph.edges():
        if (u in inside) == (v in inside):
            continue
        sign = 1 if u in inside else -1  # +1 was applied at the lower endpoint
        direct.update(edge_coordinate(u, v, n), sign)
    assert arrays(merged) == arrays(direct)


# ----------------------------------------------------------------------
# Batch construction == per-view oracle, bit for bit
# ----------------------------------------------------------------------
REGISTRY_SPECS = [
    "full",
    "sampled:2",
    "degree-adaptive:2",
    "low-degree:3",
    "hybrid:3,2",
    "priority:1",
    "linear:1",
    "mis-full",
    "mis-sampled:2",
    "mis-local-min",
    "mis-patched:2",
]


def assert_batch_matches_oracle(protocol, graph, coins):
    n = max(graph.vertices, default=-1) + 1
    if n == 0:
        return
    views = views_of(graph, n)
    batch = protocol.sketch_batch(graph, n, coins)
    assert set(batch) == set(graph.vertices)
    for v in graph.sorted_vertices():
        oracle = protocol.sketch(views[v], coins)
        assert batch[v].num_bits == oracle.num_bits, v
        assert batch[v].to_bytes() == oracle.to_bytes(), v


@pytest.mark.parametrize("spec", REGISTRY_SPECS)
@given(graph_spec, seeds)
@settings(max_examples=15, deadline=None)
def test_registry_batch_bit_identical(spec, graph_spec_value, seed):
    graph = build_frozen(graph_spec_value)
    assert_batch_matches_oracle(make_protocol(spec), graph, PublicCoins(seed=seed))


FAMILY_PROTOCOLS = [
    lambda g: AGMSpanningForest(),
    lambda g: AGMConnectivity(),
    lambda g: ConnectivityCertificate(k=2),
    lambda g: CrossingEdgeProtocol(samples_per_vertex=3),
    lambda g: PaletteSparsificationColoring(max(g.max_degree(), 1)),
    lambda g: PrivateCoinColoring(max(g.max_degree(), 1)),
    lambda g: DensestSubgraphSketch(0.5),
    lambda g: DegeneracySketch(0.5),
    lambda g: TriangleCountSketch(0.5),
]


@pytest.mark.parametrize("make", FAMILY_PROTOCOLS)
@given(graph_spec, seeds)
@settings(max_examples=10, deadline=None)
def test_family_batch_bit_identical(make, graph_spec_value, seed):
    graph = build_frozen(graph_spec_value)
    assert_batch_matches_oracle(make(graph), graph, PublicCoins(seed=seed))


@given(graph_spec, seeds)
@settings(max_examples=10, deadline=None)
def test_run_protocol_fast_path_matches_slow_path(spec, seed):
    graph = build_frozen(spec)
    if not graph.vertices:
        return
    n = max(graph.vertices) + 1
    coins = PublicCoins(seed=seed)
    protocol = AGMSpanningForest()
    fast = run_protocol(graph, protocol, coins, n=n)
    slow = run_protocol(graph, protocol, coins, n=n, views=views_of(graph, n))
    assert fast.output == slow.output
    assert fast.max_bits == slow.max_bits
    for v in graph.sorted_vertices():
        assert (
            fast.transcript.sketches[v].to_bytes()
            == slow.transcript.sketches[v].to_bytes()
        )


# ----------------------------------------------------------------------
# Satellite plumbing: coins bulk draws and view memoization
# ----------------------------------------------------------------------
def test_uniform_ints_is_the_single_stream():
    coins = PublicCoins(seed=5)
    values = coins.uniform_ints("bulk", 50, 17)
    assert len(values) == 50 and all(0 <= v < 17 for v in values)
    rng = coins.rng("bulk")
    assert values == [rng.randrange(17) for _ in range(50)]
    # Deterministic, and distinct labels give distinct streams.
    assert values == coins.uniform_ints("bulk", 50, 17)
    assert values != coins.uniform_ints("bulk2", 50, 17)


def test_uniform_ints_validates_arguments():
    coins = PublicCoins(seed=5)
    with pytest.raises(ValueError):
        coins.uniform_ints("x", 3, 0)
    with pytest.raises(ValueError):
        coins.uniform_ints("x", -1, 5)


def test_views_of_memoizes_frozen_graphs():
    g = Graph(vertices=range(5))
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    frozen = g.freeze()
    first = views_of(frozen, 5)
    assert views_of(frozen, 5) is first
    assert views_of(frozen, 6) is not first  # distinct player count
    view = first[1]
    assert view.sorted_neighbors == (0, 2)
    assert view.sorted_neighbors is view.sorted_neighbors  # cached
