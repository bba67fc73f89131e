"""Tests of the benchmark's own correctness gate and tracer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import skos.bott  # noqa: E402
import skos.complexes  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _cheap(workload: str, count: int) -> list[workloads.Request]:
    """The first ``count`` requests of a seed-0 list that run in milliseconds."""
    small = [r for r in workloads.build_requests(workload, 0)
             if ("--rank 1,1" in r.key or "(1|1," in r.key)]
    return small[:count]


class DigestGate(unittest.TestCase):
    def test_golden_digests_pass(self):
        res, _, _ = workloads.run_requests(_cheap("homology_sweep", 4), workloads.load_golden())
        self.assertEqual((res.attempted, res.failed), (4, 0))

    def test_corrupted_digest_fails(self):
        reqs = _cheap("homology_sweep", 4)
        golden = dict(workloads.load_golden())
        golden[reqs[2].key] = "0" * 64
        res, _, _ = workloads.run_requests(reqs, golden)
        self.assertEqual(res.failed, 1)
        self.assertIn("digest", res.failures[0])
        self.assertTrue(res.failures[0].startswith(reqs[2].key))

    def test_nonzero_exit_fails(self):
        req = workloads.Request("bad", "cli", ["specialize", "--rank", "2,0", "--omega", "-1,2"])
        res, _, _ = workloads.run_requests([req], {})
        self.assertEqual(res.failed, 1)
        self.assertIn("exit 2", res.failures[0])


class InvariantGate(unittest.TestCase):
    def test_ber_multiplicativity(self):
        first = _cheap("ber_check", 1)[0].triple
        reqs = [r for r in workloads.build_requests("ber_check", 0) if r.triple == first]
        self.assertEqual(len(reqs), 3)
        res, bers, spec = workloads.run_requests(reqs, {})
        workloads.post_check(res, bers, spec)
        self.assertEqual(res.failed, 0)
        (vals,) = bers.values()
        vals[2] = vals[2] + vals[2]
        workloads.post_check(res, bers, spec)
        self.assertEqual(res.failed, 1)

    def test_specialized_round_trip_and_dd(self):
        reqs = [workloads.Request(
            "spec", "export", ["specialize", "--rank", "3,1", "--omega=1,-2,3,0", "--output", "json"])]
        res, bers, spec = workloads.run_requests(reqs, {})
        workloads.post_check(res, bers, spec)
        self.assertEqual(res.failed, 0)
        _, (text, C) = spec[0]
        pos = next(p for p in C.positions if p in C.diff_at and p + 1 in C.diff_at)
        hit_cols = {c for _, c in C.diff_at[pos + 1]._d}
        entry = next(rc for rc in C.diff_at[pos]._d if rc[0] in hit_cols)
        C.diff_at[pos]._d[entry] += 1
        workloads.post_check(res, bers, spec)
        self.assertEqual(res.failed, 2)  # the round trip and d∘d both break


class Repetitions(unittest.TestCase):
    def test_order_is_a_seeded_permutation_per_repetition(self):
        first = workloads.order("bott_cross", 3, 0, 36)
        self.assertEqual(sorted(first), list(range(36)))
        self.assertEqual(first, workloads.order("bott_cross", 3, 0, 36))
        self.assertNotEqual(first, workloads.order("bott_cross", 3, 1, 36))

    def test_reference_factor_scales_to_slice_time(self):
        self.assertAlmostEqual(reference.factor([reference.SLICE_S] * 3), 1.0)
        self.assertAlmostEqual(reference.factor([2 * reference.SLICE_S]), 0.5)


class Tracing(unittest.TestCase):
    def test_sites_fire_and_are_restored(self):
        originals = {name: getattr(skos.bott, name) for name in ("local_matrix", "rank", "contract_euler")}
        before = skos.bott.local_matrix.cache_info()
        t = tracer.Tracer()
        t.install()
        try:
            skos.bott.forms_cohomology_direct(1, 1, 1, -3)
            skos.bott.forms_cohomology_direct(1, 1, 1, -3)
        finally:
            t.uninstall()
        for name, obj in originals.items():
            self.assertIs(getattr(skos.bott, name), obj)
            self.assertGreater(t.site_calls[f"skos.bott.{name}"], 0)
        # cache hits count as calls: every lookup went through the wrapper
        after = skos.bott.local_matrix.cache_info()
        lookups = after.hits + after.misses - before.hits - before.misses
        self.assertEqual(t.site_calls["skos.bott.local_matrix"], lookups)
        self.assertGreater(after.hits, before.hits)
        self_total = sum(v for k, v in t.metrics().items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_total, t.top_s, places=9)

    def test_classmethod_restored(self):
        raw = vars(skos.complexes.GradedComplex)["from_record"]
        t = tracer.Tracer()
        t.install()
        t.uninstall()
        self.assertIs(vars(skos.complexes.GradedComplex)["from_record"], raw)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bott_cross", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
