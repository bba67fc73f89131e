"""The benchmark's own gate tests, run as part of the test suite.

``perfbench`` checks its golden digests, its invariants and that every
traced call site it expects still fires.  A refactor that silences a
site (say, by binding an operator at import time) passes every other
test, so the gate runs here too.
"""

import importlib
import importlib.util
import re
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
    # unittest on Python 3.11 also exits 0 when discovery finds no test
    ran = re.search(r"^Ran (\d+) tests? ", proc.stderr, re.M)
    assert ran and int(ran.group(1)) > 0, proc.stderr[-2000:]


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


def _bench(monkeypatch):
    """``perfbench/run.py`` as a module, with ``perfbench`` importable."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_expected_sites_resolve(monkeypatch):
    """Every site the traced benchmark run must see fire is bound to the
    original of a function the tracer wraps, so a renamed or re-imported
    binding (say ``skos.cli.homology``) fails here, not only in that run."""
    bench = _bench(monkeypatch)
    import tracer

    targets = [t for ts, _ in tracer.LAYERS.values() for t in ts]
    targets += [t for ts in tracer.COUNT_ONLY.values() for t in ts]
    wrapped = {id(tracer._resolve(t)) for t in targets}
    sites = sorted({s for ss in bench.EXPECTED_SITES.values() for s in ss})
    assert "skos.cli.homology" in sites
    for site in sites:
        assert id(_site_object(site)) in wrapped, f"the tracer wraps nothing bound at {site}"


# A few cheap requests of each workload that between them reach every
# expected site: rank (1|1), both kinds, Z, Q and F_p, every export command.
_CHEAP = {
    "homology_sweep": lambda r: "--rank 1,1 --weight 2 " in r.key,
    "bott_cross": lambda r: ("--m 2 --n 2 " in r.key and r.key.endswith(" --r 1"))
    or ("--m 0 --n 4 " in r.key and r.key.endswith(" --r 0")),
    "ber_check": lambda r: "(1|1, " in r.key,
    "complex_export": lambda r: "--rank 1,1 " in r.key and ("--weight 2 " in r.key or r.payload[0] == "specialize"),
}


def test_expected_sites_fire(monkeypatch):
    """Every site the traced benchmark run expects fires on a few requests
    of its workload, so an import that binds a traced function early
    (``from skos.multilinear import basis_wedge_sym`` in a caller, say)
    fails here, not only in that run."""
    bench = _bench(monkeypatch)
    import skos.bott
    import tracer
    import workloads

    golden = workloads.load_golden()
    for workload, cheap in _CHEAP.items():
        reqs = [r for r in workloads.build_requests(workload, 0) if cheap(r)]
        for name in workloads.BOTT_CACHES:  # a warm cache would hide the sites behind it
            getattr(skos.bott, name).cache_clear()
        t = tracer.Tracer()
        t.install()
        try:
            res, _, _ = workloads.run_requests(reqs, golden)
        finally:
            t.uninstall()
        assert reqs and res.failed == 0, res.failures
        silent = [s for s in bench.EXPECTED_SITES[workload] if not t.site_calls.get(s)]
        assert not silent, f"{workload}: {silent} never fired"


def test_stencil_sites_fire_on_a_warm_cache(monkeypatch):
    """The stencil caches key on the operator as well as on (generators,
    degree).  Under the tracer the operator is a wrapper, so a cache that
    untraced builds filled still misses and the antiderivation sites fire;
    a key without the operator would silence them."""
    _bench(monkeypatch)
    import tracer
    import workloads

    from skos.complexes import _derivative_stencil, build_derham, build_koszul, contraction_stencil

    def misses():
        return [f.cache_info().misses for f in (contraction_stencil, _derivative_stencil)]

    build_koszul(2, 2, 4), build_derham(2, 2, 4)
    warm = misses()
    build_koszul(2, 2, 4), build_derham(2, 2, 4)
    assert misses() == warm, "a second build of the same slices missed the stencil cache"

    # requests whose every stencil the two builds above have cached
    reqs = [r for w in ("homology_sweep", "complex_export") for r in workloads.build_requests(w, 0)
            if "--rank 2,2 --weight 4 " in r.key]
    t = tracer.Tracer()
    t.install()
    try:
        res, _, _ = workloads.run_requests(reqs, workloads.load_golden())
    finally:
        t.uninstall()
    assert len(reqs) == 8 and res.failed == 0, res.failures
    silent = [s for s in ("skos.complexes.contract_euler", "skos.complexes.exterior_d") if not t.site_calls.get(s)]
    assert not silent, f"{silent} never fired on a warm stencil cache"


def test_basis_site_fires_on_a_warm_cache(monkeypatch):
    """The basis cache sits on ``skos.multilinear.basis_wedge_sym`` itself,
    so the tracer wraps the cache and its hits still count as calls of
    the site; a cache in a caller would silence it once warm."""
    _bench(monkeypatch)
    import tracer
    import workloads

    from skos.complexes import build_derham, build_koszul
    from skos.multilinear import basis_wedge_sym

    build_koszul(2, 2, 4).to_record(), build_derham(2, 2, 4).to_record()
    warm = basis_wedge_sym.cache_info().misses

    # requests whose every basis the two builds above have cached
    reqs = [r for w in ("homology_sweep", "complex_export") for r in workloads.build_requests(w, 0)
            if "--rank 2,2 --weight 4 " in r.key]
    t = tracer.Tracer()
    t.install()
    try:
        res, _, _ = workloads.run_requests(reqs, workloads.load_golden())
    finally:
        t.uninstall()
    assert len(reqs) == 8 and res.failed == 0, res.failures
    assert basis_wedge_sym.cache_info().misses == warm, "a warm request missed the basis cache"
    assert t.site_calls.get("skos.multilinear.basis_wedge_sym"), "the basis site never fired on a warm cache"


def test_record_round_trip_adds_no_basis_miss():
    """Reading back the record of a slice already built enumerates nothing."""
    import json

    from skos.complexes import GradedComplex, build_berezinian, build_derham, build_koszul, specialize_koszul
    from skos.multilinear import basis_wedge_sym

    for C in (build_koszul(2, 1, 3), build_derham(1, 2, 3), build_berezinian(1, 1, 2, 3),
              specialize_koszul(2, 1, (2, 3, 0))):
        text = json.dumps(C.to_record())
        misses = basis_wedge_sym.cache_info().misses
        assert GradedComplex.from_record(json.loads(text)).to_record() == json.loads(text)
        assert basis_wedge_sym.cache_info().misses == misses, f"read-back of a {C.kind} record missed"


def test_stencil_caches_are_bounded():
    from skos.complexes import _derivative_stencil, contraction_stencil

    for f in (contraction_stencil, _derivative_stencil):
        assert f.cache_parameters()["maxsize"] is not None, f"{f.__name__} has no bound"


def test_bott_caches_are_bounded(monkeypatch):
    """Every cache the benchmark reads has a finite bound, so a long-lived
    process cannot grow it without limit."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    import skos.bott

    for name in workloads.BOTT_CACHES:
        maxsize = getattr(skos.bott, name).cache_parameters()["maxsize"]
        assert maxsize is not None, f"skos.bott.{name} has no bound"


def test_bott_caches_all_miss(monkeypatch):
    """The cheap bott_cross requests reach every cache the benchmark reads,
    so a refactor that drops one from the path cannot silently zero the
    ``bott.cache.*`` counters."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    import skos.bott

    reqs = [r for r in workloads.build_requests("bott_cross", 0) if _CHEAP["bott_cross"](r)]
    for name in workloads.BOTT_CACHES:
        getattr(skos.bott, name).cache_clear()
    res, _, _ = workloads.run_requests(reqs, workloads.load_golden())
    assert reqs and res.failed == 0, res.failures
    unused = [name for name in workloads.BOTT_CACHES if not getattr(skos.bott, name).cache_info().misses]
    assert not unused, f"bott_cross never missed in {unused}"
