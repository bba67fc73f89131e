"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --rep R --trace 0|1 --spawn-ns T [--setup-only]

``--spawn-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process; set-up time runs from there until the inputs are
generated and the golden digests are loaded.  ``--rep`` picks the order
of the requests.  Latencies are reported in the order of the request
list, with the reference slices (``reference.py``) timed among them.
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


SETUP_SLICES = 10  # reference slices timed after a set-up-only start


def _rep(args) -> dict:
    import reference
    import workloads

    reqs = workloads.build_requests(args.workload, args.seed)
    golden = workloads.load_golden()
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    ref = reference.Reference()
    if args.setup_only:
        for _ in range(SETUP_SLICES):
            ref.sample()
        return {"setup_s": setup_s, "ref_samples_s": ref.samples_s}

    workloads.assert_cold(workloads.cache_info())
    order = workloads.order(args.workload, args.seed, args.rep, len(reqs))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ref.sample()
    try:
        res, bers, specialized = workloads.run_requests([reqs[i] for i in order], golden, ref)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ref.sample()
    workloads.post_check(res, bers, specialized)
    latencies_s = [0.0] * len(reqs)
    for i, lat in zip(order, res.latencies_s):
        latencies_s[i] = lat
    out = {
        "setup_s": setup_s,
        "wall_s": sum(latencies_s),
        "latencies_s": latencies_s,
        "ref_samples_s": ref.samples_s,
        "attempted": res.attempted,
        "failed": res.failed,
        "failures": res.failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches": workloads.cache_info(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["top_s"] = tracer.top_s
        out["site_calls"] = tracer.site_calls
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import skos

    if Path(skos.__file__).resolve().parent != SRC / "skos":
        print(f"skos imported from {skos.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(_rep(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
