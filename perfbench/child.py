"""One workload process: set up, run one pass, check it, report as JSON.

    python perfbench/child.py --workload W --seed S --mode {setup,timed,traced}
                              --spawned MONOTONIC

Started by ``run.py`` as a fresh interpreter for every pass, so each
pass is a cold start.  ``--spawned`` is the parent's ``time.monotonic()``
just before the spawn (the clock is system-wide), so ``setup_s`` covers
interpreter start-up, the package import, the registry and the engine.
The last line of standard output is the pass's JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    import repro.experiments

    repro.experiments.all_experiments()
    import_s = time.perf_counter() - began
    ctx = workloads.prepare(args.workload, args.seed, ROOT)
    result: dict = {
        "setup_s": time.monotonic() - args.spawned,
        "import_s": import_s,
    }
    try:
        if args.mode != "setup":
            result.update(run_pass(ctx, traced=args.mode == "traced"))
    finally:
        workloads.close(ctx)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def run_pass(ctx: dict, traced: bool) -> dict:
    """Execute and verify the workload once; add layer figures if traced."""
    layers: dict = {}
    if traced:
        from repro import obs
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        with obs.recording(obs.TelemetryRecorder()) as recorder:
            out = workloads.execute(ctx)
        layers = layer_metrics(tracer, recorder, out)
        layers["span_tree"] = tracer.span_tree()
    else:
        out = workloads.execute(ctx)
    verdicts, digests = workloads.verify(ctx, out)
    result = {
        "wall_s": out["wall_s"],
        "points": out["points"],
        "points_per_s": out.get("points_per_s", out["points"] / out["wall_s"]),
        "exp_wall_s": out["exp_wall_s"],
        "verdicts": verdicts,
        "digests": digests,
        "layers": layers,
    }
    if "resume_s" in out:
        result["resume_s"] = out["resume_s"]
        result["sweep.executed"] = len(out["write"].executed) + len(out["relaunch"].executed)
        result["sweep.skipped"] = len(out["write"].skipped) + len(out["relaunch"].skipped)
    return result


#: Benchmark metric name -> the tracer figure it reports.
RENAMED = {
    "runner.protocols": "runner.calls",
    "engine.batches": "engine.calls",
    "engine.dispatch_s": "engine.busy_s",
    "store.puts": "store.put.calls",
    "store.put_busy_s": "store.put.busy_s",
    "store.open_busy_s": "store.open.busy_s",
}


def layer_metrics(tracer, recorder, out: dict) -> dict:
    """Per-layer figures of one traced pass, by benchmark metric name.

    Wrapper spans give calls and times in this process; the program's
    own telemetry counters (merged from pool workers at each barrier)
    give cache traffic, sketch cells, store bytes and transcript bits.
    """
    from repro.obs import (
        CACHE_HITS,
        CACHE_MISSES,
        CACHE_STORES,
        SKETCH_CELLS_PACKED,
        STORE_BYTES,
        TRANSCRIPT_BITS,
        TRANSCRIPT_MESSAGES,
    )

    spans = tracer.layer_metrics()
    totals = defaultdict(int, recorder.totals())
    bits = recorder.series(TRANSCRIPT_BITS)
    hits, misses = totals[CACHE_HITS], totals[CACHE_MISSES]
    messages = totals[TRANSCRIPT_MESSAGES]
    metrics = dict(spans)
    metrics.update({new: spans[old] for new, old in RENAMED.items()})
    metrics.update(
        {
            "engine.item_s": sum(
                s.duration for s in recorder.spans if s.name == "engine.item"
            ),
            "sketch.cells_packed": totals[SKETCH_CELLS_PACKED],
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.stores": totals[CACHE_STORES],
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "store.put_bytes": totals[STORE_BYTES],
            "transcript.max_bits": max(bits.values(), default=0),
            "transcript.avg_bits": sum(bits.values()) / messages if messages else 0.0,
            "trace.coverage": spans["covered_s"] / out["wall_s"],
        }
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
