"""The four benchmark workloads: seeded request lists, execution and answer checks.

Every request goes through the public ``skos`` API or the in-process CLI
(``skos.cli.run``), looked up as a module attribute at call time so that
the tracer's rebinding is seen.  A request is timed on its own; the
check of its answer runs after its timer stops.

Importing this module needs ``src`` of the checkout on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import skos.berezinian
import skos.bott
import skos.cli
import skos.complexes

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# Caches in skos.bott whose hit counts feed the bott.cache.* metrics; every
# repetition must find them empty, as a fresh `skos` CLI process does.
BOTT_CACHES = ("local_matrix", "local_basis", "laurent_matrix", "laurent_basis", "_koszul")

@dataclass
class Request:
    key: str  # digest key: the argv joined by spaces, or the ber matrix label
    op: str  # "cli", "export" (cli, then read the record back) or "ber"
    payload: object  # argv list, or a SuperMatrix record
    triple: int = -1  # ber_check: index of the (M, N, M@N) triple
    role: int = -1  # ber_check: 0 = M, 1 = N, 2 = M@N

    @property
    def seeded(self) -> bool:
        """The output depends on the seed: checked by an invariant, not a digest."""
        return self.op == "ber" or self.payload[0] == "specialize"


@dataclass
class RepResult:
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{key}: {why}")


# ---------------------------------------------------------------------------
# request lists

def _homology_sweep(rng: random.Random) -> list[Request]:
    argvs = [
        ["homology", "--kind", kind, "--rank", f"{a},{b}", "--weight", str(n),
         "--base", base, "--output", "json"]
        for kind in ("koszul", "derham")
        for a in range(5)
        for b in range(5 - a)
        for n in range(6)
        for base in ("Z", "Q", "Fp:32003")
    ]
    for a, b in ((3, 2), (4, 1)):
        argvs.append(["homology", "--kind", "koszul", "--rank", f"{a},{b}", "--weight", "6",
                      "--base", "Z", "--output", "json"])
    return [Request(" ".join(v), "cli", v) for v in argvs]


def _bott_cross(rng: random.Random) -> list[Request]:
    argvs = [
        ["bott", "--m", str(m), "--n", str(n), "--method", "both", "--output", "csv",
         "--p", "0", "--p-max", "4", "--r", str(r)]
        for m, n in ((2, 2), (0, 4), (3, 1), (1, 2))
        for r in range(-4, 5)
    ]
    return [Request(" ".join(v), "cli", v) for v in argvs]


# (p, q, Grassmann generators, triples)
BER_MIX = ((1, 1, 4, 24), (2, 1, 4, 24), (2, 2, 4, 24), (2, 2, 6, 6), (3, 3, 6, 1))


def _ber_check(rng: random.Random) -> list[Request]:
    shapes = [(p, q, g) for p, q, g, count in BER_MIX for _ in range(count)]
    rng.shuffle(shapes)
    reqs = []
    for t, (p, q, g) in enumerate(shapes):
        M = skos.berezinian.random_invertible_supermatrix(rng, p, q, g)
        N = skos.berezinian.random_invertible_supermatrix(rng, p, q, g)
        for role, mat in enumerate((M, N, M @ N)):
            label = f"ber triple {t} ({p}|{q}, {g} gens) {'M N MN'.split()[role]}"
            reqs.append(Request(label, "ber", mat.to_record(), t, role))
    return reqs


def _complex_export(rng: random.Random) -> list[Request]:
    argvs = []
    for total in range(6):
        for a in range(total + 1):
            b = total - a
            rank = f"{a},{b}"
            for n in range(5):
                argvs.append(["koszul", "--rank", rank, "--weight", str(n), "--output", "json"])
                argvs.append(["derham", "--rank", rank, "--weight", str(n), "--output", "json"])
                if total <= 3:
                    argvs.append(["berezinian-complex", "--rank", rank, "--weight", str(n),
                                  "--output", "json"])
            for _ in range(3):
                omega = [rng.randint(-3, 3) for _ in range(a)] + [0] * b
                # "--omega=..." because argparse reads "--omega -1,2" as a flag
                argvs.append(["specialize", "--rank", rank,
                              "--omega=" + ",".join(map(str, omega)), "--output", "json"])
    return [Request(" ".join(v), "export", v) for v in argvs]


_BUILDERS = {
    "homology_sweep": _homology_sweep,
    "bott_cross": _bott_cross,
    "ber_check": _ber_check,
    "complex_export": _complex_export,
}


def build_requests(workload: str, seed: int) -> list[Request]:
    """The workload's request list in a fixed order; the same seed gives the same inputs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def order(workload: str, seed: int, rep: int, count: int) -> list[int]:
    """The order in which repetition ``rep`` sends the ``count`` requests.

    Each repetition of a run shuffles the list differently.  On
    ``bott_cross`` the order decides which request fills a shared cache
    and which one finds it filled, so a request's median latency over
    the repetitions is its latency over several orders, not over one.
    """
    idx = list(range(count))
    random.Random(f"{workload}:{seed}:order:{rep}").shuffle(idx)
    return idx


# ---------------------------------------------------------------------------
# digests

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, str]:
    """Request key -> sha256 of the expected output, for seed-independent requests."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


# ---------------------------------------------------------------------------
# execution

def cache_info() -> dict[str, tuple[int, int, int]]:
    """(hits, misses, currsize) of each lru_cache in skos.bott."""
    out = {}
    for name in BOTT_CACHES:
        info = getattr(skos.bott, name).cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


def assert_cold(info: dict[str, tuple[int, int, int]]) -> None:
    warm = {name: size for name, (_, _, size) in info.items() if size}
    if warm:
        raise RuntimeError(f"bott caches are not empty at the start of a run: {warm}")


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = skos.cli.run(argv, out, err)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _export(argv: list[str]):
    text = run_cli(argv)
    return text, skos.complexes.GradedComplex.from_record(json.loads(text))


def _ber(record: dict):
    return skos.berezinian.ber(skos.berezinian.SuperMatrix.from_record(record))


def _same_shape(C, text: str) -> bool:
    """The read-back complex has the positions, basis sizes and nnz of its record."""
    rec = json.loads(text)
    return (
        list(C.positions) == rec["positions"]
        and [len(C.basis_at[p]) for p in C.positions] == [len(b) for b in rec["bases"]]
        and [C.diff_at[d["from"]].nnz for d in rec["differentials"]]
        == [len(d["entries"]) for d in rec["differentials"]]
    )


def run_requests(reqs: list[Request], golden: dict[str, str], reference=None):
    """Closed loop over the request list: one request at a time, each timed.

    Returns the per-request result and what the post-run checks need:
    the ber values by triple and the specialized (text, complex) pairs.
    ``reference`` (a ``reference.Reference``), if given, times its slices
    between requests, outside the requests' timers.
    """
    res = RepResult()
    bers: dict[int, dict[int, object]] = {}
    specialized = []
    for req in reqs:
        if reference is not None and res.latencies_s:
            reference.after(res.latencies_s[-1])
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            if req.op == "cli":
                answer = run_cli(req.payload)
            elif req.op == "export":
                answer = _export(req.payload)
            else:
                answer = _ber(req.payload)
        except Exception as e:  # a failed request is counted, the loop goes on
            res.latencies_s.append(time.perf_counter() - t0)
            res.fail(req.key, "".join(traceback.format_exception_only(e)).strip())
            continue
        res.latencies_s.append(time.perf_counter() - t0)
        if req.op == "ber":
            bers.setdefault(req.triple, {})[req.role] = answer
            continue
        text = answer if req.op == "cli" else answer[0]
        if req.op == "export" and not _same_shape(answer[1], text):
            res.fail(req.key, "read-back complex differs from its record")
        elif req.seeded:
            specialized.append((req.key, answer))
        elif golden.get(req.key) != digest(text):
            res.fail(req.key, "output digest differs from the golden digest")
    return res, bers, specialized


def post_check(res: RepResult, bers, specialized) -> None:
    """Invariant checks for seeded outputs; run with tracing removed."""
    for t, vals in sorted(bers.items()):
        if len(vals) == 3 and vals[2] != vals[0] * vals[1]:
            res.fail(f"ber triple {t}", "ber(M@N) != ber(M)*ber(N)")
    for key, (text, C) in specialized:
        if C.to_record() != json.loads(text):
            res.fail(key, "record round trip is not exact")
        for pos in C.positions:
            if pos in C.diff_at and pos + 1 in C.diff_at:
                if not (C.diff_at[pos + 1] @ C.diff_at[pos]).is_zero():
                    res.fail(key, f"d∘d != 0 at position {pos}")
                    break
