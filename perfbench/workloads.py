"""The four benchmark workloads, driven through the package's public API.

Each workload is three steps, run inside one fresh workload process:

* ``prepare(seed, root)`` — set-up: build the engine (and, for
  ``sweep``, a fresh run store and disk cache).  Timed as ``setup_s``.
* ``execute(ctx)`` — the measured work.  Returns the outputs plus the
  figures measured on the way (``wall_s``, points, per-experiment wall).
* ``verify(ctx, out)`` — correctness checks, outside the timed region.
  One verdict per item (an experiment, or a sweep point); a failed
  check is counted, never raised.

``reproduce`` and ``lemma-exact`` ignore the seed: their references are
the declared defaults (checked against the committed ``REPORT.md``) and
exhaustive enumeration.  ``sketch-scale`` and ``sweep`` derive every
experiment seed from it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path

WORKLOADS = ("reproduce", "sketch-scale", "lemma-exact", "sweep")

#: Items whose check is known to fail at this commit, with the reason.
#: They still count as failed; they only keep ``correct`` true.
KNOWN_MISMATCHES = {
    "reproduce": {
        "ABL": "report lines carry wall-clock kernel timings",
    },
}

#: sketch-scale: sketch experiments on random graphs; only UB-2R touches
#: D_MM (two attacks, about 2% of the time).
SKETCH_SCALE = (
    ("UB-SF", {"ns": [64, 128]}),
    ("UB-COL", {"ns": [32, 64]}),
    ("UB-2R", {"n": 64}),
    ("UB-EXT", {"trials": 8}),
    ("STR", {"n": 24}),
)

#: lemma-exact: exhaustive Fraction-mode lemma checks.
LEMMA_EXACT = (
    ("L35", {"r": 1, "t": 4, "k": 2}),
    ("L33", {"r": 1, "t": 3, "k": 2}),
    ("L34", {"r": 1, "t": 3, "k": 2}),
)

#: sweep: T1b at its smoke parameters over a seed x m grid.
SWEEP_EXPERIMENT = "T1b"
SWEEP_SEEDS = 16
SWEEP_MS = (8, 10, 12)
SWEEP_WORKERS = 2


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit experiment seed, a pure function of the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def lines_digest(lines) -> str:
    """SHA-256 of report lines, for comparing runs across processes."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report_sections(path: Path) -> dict[str, tuple[str, ...]]:
    """Each experiment's report lines as committed in ``REPORT.md``."""
    sections: dict[str, tuple[str, ...]] = {}
    current = None
    body: list[str] | None = None
    for line in path.read_text().splitlines():
        if line.startswith("## "):
            current, body = line[3:].strip(), None
        elif current is not None and body is None and line == "```text":
            body = []
        elif body is not None and line == "```":
            sections[current] = tuple(body)
            current, body = None, None
        elif body is not None:
            body.append(line)
    return sections


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def prepare(workload: str, seed: int, root: Path) -> dict:
    """Build what the workload needs before its timed work begins."""
    from repro.experiments import get_experiment
    from repro.runs.api import build_engine

    ctx: dict = {"workload": workload, "seed": seed, "root": root}
    if workload == "sweep":
        scratch = root / ".perfbench_out" / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        ctx["tmp"] = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
        ctx["engine"] = build_engine(
            workers=SWEEP_WORKERS, cache_dir=str(ctx["tmp"] / "cache")
        )
        smoke = dict(get_experiment(SWEEP_EXPERIMENT).spec.smoke)
        for axis in ("seed", "m"):
            smoke.pop(axis, None)
        ctx["base"] = smoke
        ctx["grid"] = {
            "seed": [derive_seed(seed, f"sweep-{i}") for i in range(SWEEP_SEEDS)],
            "m": list(SWEEP_MS),
        }
        return ctx
    ctx["engine"] = build_engine(workers=1, no_cache=True)
    if workload == "reproduce":
        from repro.experiments import all_experiments

        ctx["plan"] = [(e.experiment_id, {}) for e in all_experiments()]
        ctx["exact"] = False
    elif workload == "sketch-scale":
        ctx["plan"] = [
            (eid, {**kw, "seed": derive_seed(seed, eid)}) for eid, kw in SKETCH_SCALE
        ]
        ctx["exact"] = False
    elif workload == "lemma-exact":
        ctx["plan"] = list(LEMMA_EXACT)
        ctx["exact"] = True
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    return ctx


def close(ctx: dict) -> None:
    """Stop the engine's workers and remove the workload's scratch files."""
    engine = ctx.get("engine")
    if engine is not None:
        engine.close()
    if "tmp" in ctx:
        shutil.rmtree(ctx["tmp"], ignore_errors=True)


# ----------------------------------------------------------------------
# Timed work
# ----------------------------------------------------------------------
def execute(ctx: dict) -> dict:
    """Run the workload's measured work once."""
    if ctx["workload"] == "sweep":
        return _execute_sweep(ctx)
    from repro.experiments import get_experiment

    engine, exact = ctx["engine"], ctx["exact"]
    reports, walls = {}, {}
    start = time.perf_counter()
    for eid, overrides in ctx["plan"]:
        began = time.perf_counter()
        reports[eid] = get_experiment(eid).run(engine=engine, exact=exact, **overrides)
        walls[eid] = time.perf_counter() - began
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "points": len(reports),
        "reports": reports,
        "exp_wall_s": walls,
    }


def _execute_sweep(ctx: dict) -> dict:
    from repro.runs.store import RunStore
    from repro.runs.sweep import run_sweep

    root = ctx["tmp"] / "runs"
    store = RunStore(root)
    start = time.perf_counter()
    write = run_sweep(
        SWEEP_EXPERIMENT, ctx["grid"], ctx["base"], store=store, engine=ctx["engine"]
    )
    written = time.perf_counter()
    reopened = RunStore(root)
    relaunch = run_sweep(
        SWEEP_EXPERIMENT, ctx["grid"], ctx["base"], store=reopened, engine=ctx["engine"]
    )
    end = time.perf_counter()
    return {
        "wall_s": end - start,
        "points": len(write.executed),
        "points_per_s": len(write.executed) / (written - start),
        "resume_s": end - written,
        "write": write,
        "relaunch": relaunch,
        "store": store,
        "reopened": reopened,
        "exp_wall_s": {},
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def verify(ctx: dict, out: dict) -> tuple[list[dict], dict[str, str]]:
    """Per-item verdicts, and report-line digests for cross-run checks."""
    workload = ctx["workload"]
    if workload == "sweep":
        return _verify_sweep(ctx, out), {}
    reports = out["reports"]
    digests = {eid: lines_digest(r.lines) for eid, r in reports.items()}
    verdicts = []
    if workload == "reproduce":
        reference = report_sections(ctx["root"] / "REPORT.md")
        for eid, report in reports.items():
            expected = reference.get(eid)
            if expected is None:
                verdicts.append(_verdict(eid, False, "no section in REPORT.md"))
            elif tuple(report.lines) != expected:
                differing = sum(
                    a != b for a, b in zip(report.lines, expected)
                ) + abs(len(report.lines) - len(expected))
                verdicts.append(
                    _verdict(eid, False, f"{differing} report lines differ from REPORT.md")
                )
            else:
                verdicts.append(_verdict(eid, True))
    elif workload == "sketch-scale":
        for eid, report in reports.items():
            if eid == "STR" and report.data["identical"] != report.data["trials"]:
                verdicts.append(
                    _verdict(
                        eid,
                        False,
                        f"identical {report.data['identical']} != trials "
                        f"{report.data['trials']}",
                    )
                )
            else:
                verdicts.append(_verdict(eid, True))
    else:
        for eid, report in reports.items():
            broken = [
                row["protocol"] for row in report.data["rows"] if row["holds"] is not True
            ]
            verdicts.append(
                _verdict(eid, not broken, f"inequality fails for {broken}" if broken else "")
            )
    return verdicts, digests


def _verify_sweep(ctx: dict, out: dict) -> list[dict]:
    from repro.experiments import get_experiment
    from repro.runs.api import build_engine
    from repro.runs.sweep import plan_sweep

    write, relaunch = out["write"], out["relaunch"]
    store, reopened = out["store"], out["reopened"]
    points = plan_sweep(SWEEP_EXPERIMENT, ctx["grid"], ctx["base"])
    executed, skipped = set(write.executed), set(relaunch.skipped)
    rerun = set(relaunch.executed)
    # One point, chosen by the seed, re-run serially in this process.
    probe = points[ctx["seed"] % len(points)]
    serial = get_experiment(SWEEP_EXPERIMENT).run(
        engine=build_engine(workers=1, no_cache=True), **probe.overrides
    )
    verdicts = []
    for point in points:
        key = point.key
        stored, loaded = store.get(key), reopened.get(key)
        if key not in executed:
            verdicts.append(_verdict(key[:12], False, "not executed by the write launch"))
        elif key in rerun or key not in skipped:
            verdicts.append(_verdict(key[:12], False, "re-executed by the relaunch"))
        elif loaded is None or _canonical(loaded.to_payload()) != _canonical(
            stored.to_payload()
        ):
            verdicts.append(_verdict(key[:12], False, "stored record does not round-trip"))
        elif point is probe and (
            tuple(serial.lines) != loaded.lines
            or _canonical(serial.data) != _canonical(loaded.data)
        ):
            verdicts.append(_verdict(key[:12], False, "pool result differs from serial"))
        else:
            verdicts.append(_verdict(key[:12], True))
    return verdicts


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _verdict(item: str, ok: bool, reason: str = "") -> dict:
    return {"item": item, "ok": ok, "reason": reason}
