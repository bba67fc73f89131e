"""skos benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/skos``.  Load is a
closed loop with one client in one thread: each request is sent only
after the previous one returned.  Every repetition of a workload runs in
a fresh interpreter (``perfbench/worker.py``), so the ``lru_cache``s in
``skos.bott`` start empty, as they do for each ``skos`` CLI invocation.

With ``--trace 0`` the run starts repetitions, each with its own order
of the requests, until the next one would end after S seconds (at least
MIN_REPS of them), adds set-up-only starts until it has SETUP_SAMPLES
set-up times, and reports the end-to-end metrics.  Every time metric is
scaled to the reference host speed by the reference slices timed in the
same process (``reference.py``).  With ``--trace 1`` it alternates
untraced and traced repetitions and reports the per-layer metrics, the
tracing overhead and the time no layer accounts for.

The second-to-last stdout line is the full record: provenance, every
sample and the failures.  The last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "skos"

MIN_REPS = 3  # repetitions in an untraced run, however long they take
SETUP_SAMPLES = 5  # set-up times per run, from repetitions and set-up-only starts
TRACE_PAIRS = 2  # (untraced, traced) repetition pairs in a traced run
TAIL_BEYOND = 10  # requests that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 170

import reference
from tracer import COUNT_ONLY, COUNTERS, LAYERS

# Wrapper sites that must fire on each workload, so that a missed import
# path cannot silently zero a layer.  A site is "<module or class>.<attr>".
EXPECTED_SITES = {
    "homology_sweep": [
        "skos.cli.run",
        "skos.complexes.build_koszul", "skos.complexes.build_derham",
        "skos.multilinear.basis_wedge_sym",
        "skos.complexes.contract_euler", "skos.complexes.exterior_d",
        "skos.cli.homology", "skos.exact_linalg._block_homology_z",
        "skos.exact_linalg.rank", "skos.exact_linalg._rank_fractions",
        "skos.exact_linalg._rank_mod_p",
    ],
    "bott_cross": [
        "skos.cli.run",
        "skos.bott.bott_table", "skos.bott.forms_cohomology_formula",
        "skos.bott.forms_cohomology_direct", "skos.bott.local_matrix",
        "skos.bott.laurent_matrix", "skos.bott.build_koszul",
        "skos.multilinear.basis_wedge_sym",
        "skos.bott.contract_euler", "skos.complexes.contract_euler",
        "skos.bott.rank", "skos.bott.homology", "skos.exact_linalg.rank",
        "skos.exact_linalg._rank_fractions",
    ],
    "ber_check": [
        "skos.berezinian.SuperMatrix.from_record", "skos.berezinian.ber",
        "skos.berezinian.det_even", "skos.berezinian.invert_unit",
        "skos.berezinian.GrassmannElement.__mul__",
    ],
    "complex_export": [
        "skos.cli.run",
        "skos.complexes.build_koszul", "skos.complexes.build_derham",
        "skos.complexes.build_berezinian", "skos.complexes.specialize_koszul",
        "skos.complexes.GradedComplex.to_record", "skos.complexes.GradedComplex.from_record",
        "skos.multilinear.basis_wedge_sym",
        "skos.complexes.contract_euler", "skos.complexes.exterior_d",
    ],
}

class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, trace: int, rep: int = 0, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--rep", str(rep), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(argv + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND requests beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise BenchError(f"{len(ordered)} requests are too few for a tail percentile")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _check_trace(workload: str, rep: dict) -> None:
    silent = [s for s in EXPECTED_SITES[workload] if not rep["site_calls"].get(s)]
    if silent:
        raise BenchError(f"wrappers that never fired on {workload}: {silent}")
    layers = rep["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if abs(self_total - rep["top_s"]) > 1e-6 * max(1.0, rep["top_s"]):
        raise BenchError(f"layer self times {self_total} do not add up to {rep['top_s']}")


def _cache_metrics(caches: dict) -> dict[str, tuple[float, str]]:
    hits = sum(h for h, _, _ in caches.values())
    misses = sum(m for _, m, _ in caches.values())
    return {
        "bott.cache.hits": (hits, "count"),
        "bott.cache.misses": (misses, "count"),
        "bott.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
    }


def _untraced_reps(workload: str, seed: int, seconds: int) -> list[dict]:
    """Repetitions until the next one would end after ``seconds`` (at least MIN_REPS)."""
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        reps.append(_spawn(workload, seed, 0, rep=len(reps)))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    reps: list[dict] = []
    traced: list[dict] = []
    if trace:
        for i in range(TRACE_PAIRS):
            # both halves of a pair send the requests in the same order
            reps.append(_spawn(workload, seed, 0, rep=i))
            traced.append(_spawn(workload, seed, 1, rep=i))
            _check_trace(workload, traced[-1])
    else:
        reps = _untraced_reps(workload, seed, seconds)
    for r in reps + traced:
        r["factor"] = reference.factor(r["ref_samples_s"])
    setups = [(r["setup_s"], r["factor"]) for r in reps]
    if not trace:
        for _ in range(SETUP_SAMPLES - len(setups)):
            s = _spawn(workload, seed, 0, setup_only=True)
            setups.append((s["setup_s"], reference.factor(s["ref_samples_s"])))

    done = reps + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    # A request's latency is its median over the repetitions, each scaled by
    # the speed factor of its own repetition: a spell in which the host runs
    # faster or slower moves the reference slices as it moves the requests.
    scaled = [[lat * r["factor"] for lat in r["latencies_s"]] for r in reps]
    latencies = [statistics.median(lat) for lat in zip(*scaled)]
    tail_s, tail_pct = _tail(latencies)
    wall_s = sum(latencies)
    end_to_end = {
        "setup_s": (statistics.median(s * f for s, f in setups), "s"),
        "wall_s": (wall_s, "s"),
        "req_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "req_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reps) / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "provenance": _provenance(seed),
        "load": "closed loop, 1 client, 1 thread, fresh interpreter per repetition",
        "repetitions": len(reps),
        "requests_per_repetition": reps[0]["attempted"],
        "tail_percentile": tail_pct,
        "tail_requests": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [f for r in done for f in r["failures"]],
        "reference_slice_s": reference.SLICE_S,
        "speed_factors": [r["factor"] for r in reps],
        "setup_samples_s": [s for s, _ in setups],
        "setup_factors": [f for _, f in setups],
        "wall_samples_s": [r["wall_s"] for r in reps],
        "wall_unscaled_s": sum(statistics.median(lat) for lat in zip(*(r["latencies_s"] for r in reps))),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    if not trace:
        return record, end_to_end

    # All layer figures come from one traced repetition, the one with the
    # median wall time, so that its self times and unattributed time add up
    # to its wall time exactly.
    t = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    layers = t["layers"]
    per_layer: dict[str, tuple[float, str]] = {}
    for name in [*LAYERS, *COUNT_ONLY]:
        per_layer[f"{name}.calls"] = (layers[f"{name}.calls"], "count")
        per_layer[f"{name}.errors"] = (layers[f"{name}.errors"], "count")
        if name in LAYERS:
            per_layer[f"{name}.self_s"] = (layers[f"{name}.self_s"], "s")
    for name in COUNTERS:
        per_layer[name] = (layers[name], "count")
    per_layer.update(_cache_metrics(t["caches"]))
    per_layer["trace.wall_s"] = (t["wall_s"], "s")
    # each traced repetition runs right after an untraced one in the same
    # order, and both are scaled to the reference speed
    overhead = statistics.median(tr["wall_s"] * tr["factor"] - un["wall_s"] * un["factor"]
                                 for un, tr in zip(reps, traced))
    per_layer["trace.overhead_s"] = (overhead, "s")
    per_layer["trace.unattributed_s"] = (t["wall_s"] - t["top_s"], "s")
    record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    record["site_calls"] = t["site_calls"]
    return record, per_layer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(EXPECTED_SITES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no skos sources at {SRC}; run from the root of a skos checkout",
              file=sys.stderr)
        return 2
    try:
        record, metrics = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
