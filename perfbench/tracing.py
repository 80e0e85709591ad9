"""Layer spans recorded from outside the package, by wrapping its functions.

The benchmark's traced run installs :class:`Tracer` in a fresh workload
process.  ``Tracer.install`` wraps one public function (or class
attribute) per layer boundary, records a span per call — name, layer,
start, end, parent — plus a few counts, and keeps everything in memory.
``Tracer.layer_metrics`` turns the spans into calls, busy time and self
time per layer when the pass ends.

A module-level function is replaced in its defining module *and* in
every ``repro`` module that imported it by name (``sample_dmm`` lives in
``lowerbound.distribution`` but is also bound in
``repro.lowerbound``), so no call site keeps the unwrapped original.

Work done inside process-pool workers is invisible to these wrappers
(workers record into their own copy of the tracer, which is discarded);
pool-side figures come from the program's own telemetry snapshot, which
the engine merges at the pool barrier.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: Layer name -> (module, attribute path) of every wrapped callable.
#: A dotted attribute path names a class attribute.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "dmm.sample": (("repro.lowerbound.distribution", "sample_dmm"),),
    "dmm.graph": (("repro.lowerbound.distribution", "DMMInstance.graph"),),
    "rs.build": (
        ("repro.rsgraphs.construction", "sum_class_rs_graph"),
        ("repro.rsgraphs.construction", "uniformize"),
        ("repro.rsgraphs.construction", "best_uniform"),
    ),
    "attack": (
        ("repro.lowerbound.adversary", "attack_with_matching_protocol"),
        ("repro.lowerbound.adversary", "attack_with_mis_protocol"),
        ("repro.lowerbound.adversary", "attack_with_adaptive_matching"),
        ("repro.lowerbound.adversary", "budget_sweep"),
        ("repro.lowerbound.adversary", "empirical_information"),
    ),
    "players.views": (
        ("repro.lowerbound.players", "public_player_views"),
        ("repro.lowerbound.players", "unique_player_views"),
        ("repro.lowerbound.players", "player_split"),
        ("repro.lowerbound.players", "vertex_player_views"),
    ),
    "analyze": (("repro.lowerbound.transcripts", "analyze_protocol"),),
    "kernel": (
        ("repro.infotheory.table", "TableBuilder.build"),
        ("repro.infotheory.table", "TableDistribution.from_rows"),
        ("repro.infotheory.table", "TableDistribution.from_samples"),
        ("repro.infotheory.table", "TableDistribution.marginal"),
        ("repro.infotheory.table", "TableDistribution.condition"),
        ("repro.infotheory.table", "TableDistribution.push_forward"),
        ("repro.infotheory.table", "TableDistribution.entropy"),
        ("repro.infotheory.table", "TableDistribution.mutual_information"),
    ),
    "runner": (
        ("repro.model.runner", "run_protocol"),
        ("repro.model.runner", "run_adaptive_protocol"),
    ),
    "codec": (("repro.model.messages", "BitWriter.to_message"),),
    "sketch.build": (("repro.sketches.core", "SketchFamily.build_states"),),
    "sketch.decode": (
        ("repro.sketches.core", "SketchFamily.decode_states"),
        ("repro.sketches.core", "L0FamilyState.decode"),
    ),
    "graph.freeze": (("repro.graphs.graph", "Graph.freeze"),),
    "check.matching": (
        ("repro.graphs.matching", "is_valid_matching"),
        ("repro.graphs.matching", "is_maximal_matching"),
    ),
    "engine": (
        ("repro.engine.core", "ExecutionEngine.run_trials"),
        ("repro.engine.core", "ExecutionEngine.map"),
    ),
    "store.put": (("repro.runs.store", "RunStore.put"),),
    "store.open": (("repro.runs.store", "RunStore._load"),),
}

#: Generator layers (they yield indicator tables): busy time is the time
#: spent inside ``next``, and ``<layer>.tables`` counts the items yielded.
GENERATOR_SPANS = {
    "dmm.enumerate": ("repro.lowerbound.distribution", "enumerate_indicator_tables"),
}

#: Every count a traced pass records (0 when the pass never touched it).
COUNTS = (
    "dmm.enumerate.tables",
    "rsgraph.matching_sizes.calls",
    "kernel.tables",
    "kernel.rows",
    "codec.messages",
    "codec.bits",
    "engine.tasks",
    "engine.serial_fallbacks",
    "store.unreadable_lines",
)


class Tracer:
    """In-memory span and count recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._outer: list[bool] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _enter(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._outer.append(self._depth[layer] == 0)
        self._depth[layer] += 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._depth[self.spans[index][1]] -= 1
        self._stack.pop()

    def timed(self, layer: str, fn, name: str):
        """``fn`` wrapped in a span of ``layer``."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index)

        return wrapper

    def timed_generator(self, layer: str, fn, name: str):
        """A generator function wrapped so each ``next`` is a span."""
        enter, leave, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = enter(name, layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(index)
                counts[f"{layer}.tables"] += 1
                yield item

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary of the already-imported package."""
        for layer, targets in SPANS.items():
            for module_name, path in targets:
                _patch(module_name, path, functools.partial(self.timed, layer, name=path))
        for layer, (module_name, path) in GENERATOR_SPANS.items():
            _patch(
                module_name, path, functools.partial(self.timed_generator, layer, name=path)
            )
        self._install_counts()

    def _install_counts(self) -> None:
        """Count-only hooks where a span per call would swamp the run.

        They wrap whatever ``install`` left in place, so a wrapped method
        keeps its span as well.
        """
        from repro.engine.backends import ProcessPoolBackend
        from repro.engine.core import ExecutionEngine
        from repro.infotheory.table import TableDistribution
        from repro.model.messages import BitWriter
        from repro.rsgraphs.construction import RSGraph
        from repro.runs.store import RunStore

        counts = self.counts
        sizes = RSGraph.__dict__["matching_sizes"]
        canonical = TableDistribution.__dict__["_from_canonical"].__func__
        to_message = BitWriter.to_message
        pool_map = ProcessPoolBackend.map
        run_trials, engine_map = ExecutionEngine.run_trials, ExecutionEngine.map
        load = RunStore._load

        def matching_sizes(rs):
            counts["rsgraph.matching_sizes.calls"] += 1
            return sizes.fget(rs)

        def from_canonical(cls, variables, codebooks, columns, probs, exact):
            counts["kernel.tables"] += 1
            counts["kernel.rows"] += len(probs)
            return canonical(cls, variables, codebooks, columns, probs, exact)

        def counted_to_message(writer):
            message = to_message(writer)
            counts["codec.messages"] += 1
            counts["codec.bits"] += message.num_bits
            return message

        def counted_pool_map(backend, fn, items):
            before = backend.serial_fallbacks
            try:
                return pool_map(backend, fn, items)
            finally:
                counts["engine.serial_fallbacks"] += backend.serial_fallbacks - before

        def counted_run_trials(engine, plan):
            result = run_trials(engine, plan)
            counts["engine.tasks"] += len(result.results)
            return result

        def counted_map(engine, fn, items):
            items = list(items)
            counts["engine.tasks"] += len(items)
            return engine_map(engine, fn, items)

        def counted_load(store):
            fresh = store._index is None
            index = load(store)
            if fresh:
                counts["store.unreadable_lines"] += store.corrupt_entries
            return index

        RSGraph.matching_sizes = property(matching_sizes, doc=sizes.__doc__)
        TableDistribution._from_canonical = classmethod(from_canonical)
        BitWriter.to_message = functools.wraps(to_message)(counted_to_message)
        ProcessPoolBackend.map = functools.wraps(pool_map)(counted_pool_map)
        ExecutionEngine.run_trials = functools.wraps(run_trials)(counted_run_trials)
        ExecutionEngine.map = functools.wraps(engine_map)(counted_map)
        RunStore._load = functools.wraps(load)(counted_load)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Calls, busy and self time per layer, plus the recorded counts.

        ``calls`` counts only spans with no enclosing span of the same
        layer, and ``busy`` sums their durations, so nested calls of one
        layer are neither double-counted nor double-timed.  ``self`` is
        a layer's busy time minus the time its spans spent in spans of
        other layers.
        """
        child_time = self._child_time()
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for (name, layer, start, end, parent), outer, below in zip(
            self.spans, self._outer, child_time
        ):
            own[layer] += (end - start) - below
            if outer:
                calls[layer] += 1
                busy[layer] += end - start
        metrics: dict[str, float] = {}
        for layer in [*SPANS, *GENERATOR_SPANS]:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.busy_s"] = busy[layer]
            metrics[f"{layer}.self_s"] = own[layer]
        metrics.update({name: self.counts[name] for name in COUNTS})
        metrics["covered_s"] = sum(
            end - start for _n, _l, start, end, parent in self.spans if parent < 0
        )
        return metrics

    def _child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        child_time = [0.0] * len(self.spans)
        for _name, _layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def span_tree(self) -> list[dict]:
        """Spans aggregated by call path: count, total and self seconds."""
        child_time = self._child_time()
        paths: list[str] = []
        rows: dict[str, list] = {}
        for (name, _layer, start, end, parent), below in zip(self.spans, child_time):
            path = f"{paths[parent]}>{name}" if parent >= 0 else name
            paths.append(path)
            row = rows.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += (end - start) - below
        return [
            {"path": path, "count": c, "total_s": round(t, 6), "self_s": round(s, 6)}
            for path, (c, t, s) in sorted(rows.items(), key=lambda kv: -kv[1][1])
        ]


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value) for a target path."""
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _patch(module_name: str, path: str, wrap) -> None:
    """Replace one callable by ``wrap(callable)`` everywhere it is bound.

    Class attributes keep their descriptor kind (classmethod,
    cached_property); module functions are also rebound in every
    ``repro`` module that imported them by name.
    """
    owner, attr, raw = _resolve(module_name, path)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(wrap(raw.__func__)))
    elif isinstance(raw, functools.cached_property):
        wrapped = functools.cached_property(wrap(raw.func))
        wrapped.__set_name__(owner, attr)
        setattr(owner, attr, wrapped)
    elif isinstance(owner, type):
        setattr(owner, attr, wrap(raw))
    else:
        wrapped = wrap(raw)
        for module in list(sys.modules.values()):
            if (
                module is not None
                and module.__name__.split(".")[0] == "repro"
                and module.__dict__.get(attr) is raw
            ):
                setattr(module, attr, wrapped)
