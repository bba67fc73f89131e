"""Per-layer tracing of skos from outside the package.

The tracer wraps the public functions of each skos module.  A module that
did ``from skos.x import f`` holds its own reference to ``f``, so the
tracer rebinds every attribute of every loaded ``skos`` module (and every
class attribute) that is the original object, each with a wrapper of its
own.  Each binding is a *site*; counting calls per site lets a run prove
that no import path was missed.  ``lru_cache`` objects are wrapped
themselves, so cache hits show up as calls.  ``uninstall`` puts every
original back and checks that it did.

A layer's self time is its wrapped call's duration minus the time spent
in wrapped calls it made.  The self times of all layers add up to the
time spent inside top-level wrapped calls (``top_s``).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from types import ModuleType


def _complex_sizes(c, args, C):
    c["complexes.build.nnz"] += sum(m.nnz for m in C.diff_at.values())
    dims = [len(b) for b in C.basis_at.values()]
    c["complexes.build.max_dim"] = max([c["complexes.build.max_dim"], *dims])


def _basis_entries(c, args, basis):
    c["multilinear.basis.entries"] += len(basis)


def _rank_input(c, args, result):
    M = args[0]
    c["exact_linalg.rank.nnz_in"] += M.nnz
    c["exact_linalg.rank.max_dim"] = max(c["exact_linalg.rank.max_dim"], M.rows, M.cols)


# layer -> (targets as "module:attr" or "module:Class.attr", counter or None)
LAYERS = {
    "cli.run": (["skos.cli:run"], None),
    "complexes.build": (
        ["skos.complexes:build_koszul", "skos.complexes:build_derham",
         "skos.complexes:build_berezinian", "skos.complexes:specialize_koszul"],
        _complex_sizes,
    ),
    "complexes.record": (
        ["skos.complexes:GradedComplex.to_record", "skos.complexes:GradedComplex.from_record"],
        None,
    ),
    "multilinear.basis": (["skos.multilinear:basis_wedge_sym"], _basis_entries),
    "super_poly.antiderivation": (
        ["skos.super_poly:contract_euler", "skos.super_poly:exterior_d"], None
    ),
    "exact_linalg.homology": (["skos.exact_linalg:homology"], None),
    "exact_linalg.homology_z": (["skos.exact_linalg:_block_homology_z"], None),
    "exact_linalg.rank": (["skos.exact_linalg:rank"], _rank_input),
    "exact_linalg.rank_q": (["skos.exact_linalg:_rank_fractions"], None),
    "exact_linalg.rank_fp": (["skos.exact_linalg:_rank_mod_p"], None),
    "bott.table": (["skos.bott:bott_table"], None),
    "bott.formula": (["skos.bott:forms_cohomology_formula"], None),
    "bott.direct": (["skos.bott:forms_cohomology_direct"], None),
    "bott.local_matrix": (["skos.bott:local_matrix"], None),
    "bott.laurent_matrix": (["skos.bott:laurent_matrix"], None),
    "berezinian.ber": (["skos.berezinian:ber"], None),
    "berezinian.det_even": (["skos.berezinian:det_even"], None),
    "berezinian.invert_unit": (["skos.berezinian:invert_unit"], None),
    "berezinian.from_record": (["skos.berezinian:SuperMatrix.from_record"], None),
}

# Called far too often for a span: only calls and errors are counted, and
# the time stays with the caller.
COUNT_ONLY = {
    "berezinian.grassmann_mul": ["skos.berezinian:GrassmannElement.__mul__"],
}

COUNTERS = (
    "complexes.build.nnz",
    "complexes.build.max_dim",
    "multilinear.basis.entries",
    "exact_linalg.rank.nnz_in",
    "exact_linalg.rank.max_dim",
)


def _resolve(target: str):
    """The original object named by ``module:attr`` or ``module:Class.attr``."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *cls, attr = path.split(".")
    if cls:
        raw = vars(getattr(owner, cls[0]))[attr]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = {name: 0 for name in COUNTERS}
        self.site_calls: dict[str, int] = {}
        self.top_s = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer, site, fn, count):
        stack = self._stack
        calls, errors, self_s, site_calls = self.calls, self.errors, self.self_s, self.site_calls
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_s += dt
                calls[layer] += 1
                site_calls[site] += 1
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced

    def _count(self, layer, site, fn, _unused_counter):
        calls, errors, site_calls = self.calls, self.errors, self.site_calls

        def counted(*args, **kwargs):
            calls[layer] += 1
            site_calls[site] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise

        return counted

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, layer, target, make, count):
        original = _resolve(target)
        owners = [m for name, m in sys.modules.items() if name == "skos" or name.startswith("skos.")]
        owners += [v for m in owners for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("skos.")]
        seen = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for attr, raw in list(vars(owner).items()):
                wrapped_cm = isinstance(raw, classmethod)
                if (raw.__func__ if wrapped_cm else raw) is not original:
                    continue
                if isinstance(owner, ModuleType):
                    site = f"{owner.__name__}.{attr}"
                else:
                    site = f"{owner.__module__}.{owner.__qualname__}.{attr}"
                self.site_calls[site] = 0
                wrapper = make(layer, site, original, count)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, classmethod(wrapper) if wrapped_cm else wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, (targets, count) in LAYERS.items():
            for target in targets:
                self._patch_everywhere(layer, target, self._span, count)
        for layer, targets in COUNT_ONLY.items():
            for target in targets:
                self._patch_everywhere(layer, target, self._count, None)

    def uninstall(self) -> None:
        patches, self._patches = self._patches, []
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)
        left = [f"{owner}.{attr}" for owner, attr, raw in patches if vars(owner)[attr] is not raw]
        if left:
            raise RuntimeError(f"tracer left patched: {left}")

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        for layer in COUNT_ONLY:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out.update(self.counters)
        return out
