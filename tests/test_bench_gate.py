"""The benchmark's own gate tests, run as part of the test suite.

``perfbench`` checks its golden digests, its invariants and that every
traced call site it expects still fires.  A refactor that silences a
site (say, by binding an operator at import time) passes every other
test, so the gate runs here too.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_gate_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _site_object(site: str):
    """The object bound at ``<module>.<attr>`` or ``<module>.<Class>.<attr>``,
    read from the owner's own namespace, where the tracer rebinds it."""
    parts = site.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name)
        raw = vars(owner).get(parts[-1])
        assert raw is not None, f"{site} does not exist"
        return raw.__func__ if isinstance(raw, classmethod) else raw
    raise AssertionError(f"{site} names no module")


def test_expected_sites_resolve(monkeypatch):
    """Every site the traced benchmark run must see fire is bound to the
    original of a function the tracer wraps, so a renamed or re-imported
    binding (say ``skos.cli.homology``) fails here, not only in that run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    import tracer

    targets = [t for ts, _ in tracer.LAYERS.values() for t in ts]
    targets += [t for ts in tracer.COUNT_ONLY.values() for t in ts]
    wrapped = {id(tracer._resolve(t)) for t in targets}
    sites = sorted({s for ss in bench.EXPECTED_SITES.values() for s in ss})
    assert "skos.cli.homology" in sites
    for site in sites:
        assert id(_site_object(site)) in wrapped, f"the tracer wraps nothing bound at {site}"
