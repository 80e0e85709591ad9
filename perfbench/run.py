"""The reproduction's benchmark: one command, four workloads, two modes.

    python3 perfbench/run.py --workload {reproduce,sketch-scale,lemma-exact,sweep}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory, never installed.  Every pass runs in a fresh
interpreter (``child.py``), so each pass is a cold start.

``--trace 0`` measures the end-to-end metrics with tracing off: a few
set-up-only interpreters, then timed passes for as long as another pass
still fits in ``--seconds``; each figure is the median over passes.  ``--trace 1`` runs one
untraced pass and two traced passes and reports the per-layer split;
the traced passes also self-check the wrappers (every layer the
workload is meant to exercise records work, and the exact counts repeat
bit-identically).

Metric names and units come from ``BENCHMARK.json`` at the checkout
root.  A human-readable table, the environment stamp and the path of
the full result file are printed first; the last line of standard
output is the JSON result.  The process exits non-zero, printing no
result, when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import KNOWN_MISMATCHES, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

#: Set-up-only interpreters per timed run, on top of one per pass.
SETUP_SAMPLES = 5
#: Wall-clock budget of the whole command.
BUDGET_S = 170.0

#: Counts that must repeat bit-identically across two traced passes.
EXACT_COUNTS = (
    "rsgraph.matching_sizes.calls",
    "dmm.sample.calls",
    "codec.messages",
    "kernel.rows",
    "transcript.max_bits",
)

#: Per-layer activity metrics each workload is meant to exercise; the
#: traced self-check requires every one of them to be at least 1.
EXERCISED = {
    "reproduce": (
        "dmm.sample.calls", "dmm.enumerate.tables", "rsgraph.matching_sizes.calls",
        "rs.build.calls", "attack.calls", "players.views.calls", "analyze.calls",
        "kernel.tables", "kernel.rows", "runner.protocols", "codec.messages",
        "codec.bits", "sketch.build.calls", "sketch.decode.calls",
        "sketch.cells_packed", "graph.freeze.calls", "check.matching.calls",
        "engine.batches", "engine.tasks", "transcript.max_bits",
    ),
    "sketch-scale": (
        "runner.protocols", "codec.messages", "codec.bits", "sketch.build.calls",
        "sketch.decode.calls", "sketch.cells_packed", "graph.freeze.calls",
        "transcript.max_bits",
    ),
    "lemma-exact": (
        "dmm.enumerate.tables", "rsgraph.matching_sizes.calls", "players.views.calls",
        "analyze.calls", "kernel.tables", "kernel.rows", "codec.messages",
        "codec.bits", "engine.batches", "engine.tasks",
    ),
    "sweep": (
        "engine.batches", "engine.tasks", "cache.hits", "cache.misses",
        "cache.stores", "store.puts", "store.put_bytes", "sweep.executed",
        "sweep.skipped", "transcript.max_bits",
    ),
}


class PassFailed(RuntimeError):
    """A workload process exited abnormally or printed no result."""


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        path
        for path in ("BENCHMARK.json", "REPORT.md", "src/repro/__init__.py")
        if not (ROOT / path).is_file()
    ]
    if missing:
        print(f"perfbench: not a full checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    stamp = environment()
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            names = [m["name"] for m in section]
            summary = traced_run(args.workload, args.seed, deadline, names)
        else:
            summary = timed_run(args.workload, args.seed, args.seconds, deadline)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {
        m["name"]: {"value": summary["metrics"][m["name"]], "unit": m["unit"]}
        for m in section
    }
    for m in section:
        bound = f"  (bound {m['bound']:.0%} worse)" if "bound" in m else ""
        print(f"{m['name']:<32} {summary['metrics'][m['name']]:>14.6g} {m['unit']}{bound}")
    for name, value in summary.get("extra", {}).items():
        print(f"{name:<32} {value:>14.6g}")
    for problem in summary["problems"]:
        print(f"problem: {problem}")
    result_path = write_result(args, stamp, summary)
    print(f"env: {json.dumps(stamp, sort_keys=True)}")
    print(f"full result: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics: medians over cold, untraced passes."""
    setups = [spawn(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(spawn(workload, seed, "timed", deadline))
        # Start another pass only if one more like it ends within --seconds.
        if 2 * time.monotonic() - began - start > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    checks = check_passes(workload, passes)
    metrics = {
        "wall_s": median(p["wall_s"] for p in passes),
        "setup_s": median(setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "points_per_s": median(p["points_per_s"] for p in passes),
    }
    extra = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "failed_ratio": checks["failed"] / checks["attempted"],
    }
    if workload == "sweep":
        extra["resume_s"] = median(p["resume_s"] for p in passes)
    return {**checks, "metrics": metrics, "extra": extra, "passes": passes}


def traced_run(workload: str, seed: int, deadline: float, names: list[str]) -> dict:
    """Per-layer metrics: one untraced pass, then two traced passes.

    ``names`` are the declared per-layer metrics; ``exp.<ID>.wall_s``
    comes from the untraced pass (0 for experiments the workload skips).
    """
    untraced = spawn(workload, seed, "timed", deadline)
    traced = [spawn(workload, seed, "traced", deadline) for _ in range(2)]
    checks = check_passes(workload, [untraced, *traced])
    layers = [p["layers"] for p in traced]
    # Counts come from the first traced pass (the exact ones are checked
    # to repeat below); times are the median of the two passes.
    metrics = {
        name: value if isinstance(value, int) else median(layer[name] for layer in layers)
        for name, value in layers[0].items()
        if name != "span_tree"
    }
    for name in names:
        if name.startswith("exp.") and name.endswith(".wall_s"):
            metrics[name] = untraced["exp_wall_s"].get(name[4:-7], 0.0)
    metrics["setup.import_s"] = median(p["import_s"] for p in (untraced, *traced))
    metrics["failed_ratio"] = checks["failed"] / checks["attempted"]
    metrics["resume_s"] = untraced.get("resume_s", 0.0)
    metrics["sweep.executed"] = untraced.get("sweep.executed", 0)
    metrics["sweep.skipped"] = untraced.get("sweep.skipped", 0)
    metrics["trace.overhead_ratio"] = (
        median(p["wall_s"] for p in traced) / untraced["wall_s"]
    )
    first, second = layers
    self_check = [
        f"self-check: {name} differs across traced passes "
        f"({first[name]} vs {second[name]})"
        for name in EXACT_COUNTS
        if first[name] != second[name]
    ]
    self_check += [
        f"self-check: {name} recorded no work on {workload}"
        for name in EXERCISED[workload]
        if not metrics[name] >= 1
    ]
    return {
        **checks,
        "correct": checks["correct"] and not self_check,
        "problems": checks["problems"] + self_check,
        "metrics": metrics,
        "passes": [untraced, *traced],
        "span_tree": traced[0]["layers"]["span_tree"],
    }


def check_passes(workload: str, passes: list[dict]) -> dict:
    """Fold per-pass verdicts, plus report-line identity across passes.

    Every pass of a workload runs the same experiments at the same
    seed, so its report lines must match the first pass's byte for
    byte; an item that differs counts as failed in that pass.
    """
    known = KNOWN_MISMATCHES.get(workload, {})
    reference = passes[0]["digests"]
    attempted = failed = 0
    problems: list[str] = []
    correct = True
    for number, p in enumerate(passes):
        for verdict in p["verdicts"]:
            ok, reason = verdict["ok"], verdict["reason"]
            digest = p["digests"].get(verdict["item"])
            if ok and digest is not None and digest != reference[verdict["item"]]:
                ok, reason = False, "report lines differ from the first pass"
            attempted += 1
            if ok:
                continue
            failed += 1
            if verdict["item"] in known:
                reason = f"{reason} (known: {known[verdict['item']]})"
            else:
                correct = False
            problems.append(f"pass {number}: {verdict['item']}: {reason}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one fresh workload process to completion and parse its result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("time budget exhausted before the pass could start")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, str(CHILD),
            "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--spawned", repr(spawned),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{workload} {mode} pass exceeded the time budget") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise PassFailed(f"{workload} {mode} pass exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def environment() -> dict:
    """Interpreter, platform, core count, commit and load at start."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def write_result(args, stamp: dict, summary: dict) -> Path:
    """Write the full result (stamp, passes, verdicts) under ``.perfbench_out``."""
    out_dir = ROOT / ".perfbench_out" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    )
    path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": stamp,
                **summary,
            },
            indent=1,
            sort_keys=True,
        )
    )
    return path


def median(values) -> float:
    return statistics.median(list(values))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
