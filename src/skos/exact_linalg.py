"""Exact linear algebra over Z, Q and prime fields.

All matrices carry arbitrary-precision integer entries; base change to
Q or F_p happens here, at rank-computation time.  Rank over Q and F_p
and the Smith normal form over Z share one sparse elimination kernel
that pivots only on units.  Over every base it first runs on the plain
integer rows with +-1 as the only units, a unit mod every p.  Those
pivots form a block of determinant +-1, so the rows left, the residual
core, are its Schur complement: an integer matrix with entries bounded
by minors of the input, whose rank over any field is the rank of the
input minus the pivot count.  Over Q the core is ranked by the same
kernel over ``Fraction``, so no other entry ever becomes a fraction,
and over F_p by the same kernel on the core's residues mod p.  The
product D of the core's pivots over Q is a nonzero minor of the core,
so every invariant factor of the core divides D: over Z the core's
Smith form is worked modulo D, and no entry ever grows past D/2.  Each
pivot is taken in the sparsest column its row offers, the least on a
tie (the column rule of structured Gaussian elimination, LaMacchia and
Odlyzko, CRYPTO '90).

Homology of a graded complex is reported per parity block: free ranks
always, and over Z the torsion, read off the invariant factors of the
incoming differential alone.  Every differential is an even map, and
the kernel only combines rows that share a column, so one elimination
of a differential eliminates both its parity blocks: a block's rank is
its number of pivot rows, and over Z its core is the core rows of its
parity.  Each differential keeps its unit core and the pivot rows of
that core over Q and mod each prime, each computed on first use, so it
is copied and reduced whole once, whatever the bases, and only its core
once more per base field; an entry-free one is never eliminated.
A builder that can name what fixes a matrix asks for it by name
(``named``): the first request builds it and keeps a byte snapshot of its
rows and its memo, in a table bounded by count, so a rebuilt differential
is revived from the snapshot, not assembled again, and finds the
reductions of the first build in the shared memo.  Every homology call
checks any integer known to kill the homology, and d∘d = 0 unless the
outgoing memo records a check against the incoming memo.
"""

from __future__ import annotations

import marshal
import math
import threading
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from skos.multilinear import SuperDim

if TYPE_CHECKING:  # pragma: no cover
    from skos.complexes import GradedComplex


# ---------------------------------------------------------------------------
# base rings

# Miller-Rabin on the first 13 primes as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=32)
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, once per modulus: ``parse_base`` asks again
    on every rank.  Raises ValueError at or past ``_PRIME_BOUND``."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"modulus {p} too large: primality is decided below {_PRIME_BOUND} only")
    if p < 2:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def parse_int(text: str) -> int:
    """``int(text)``, with ASCII digits 0-9 only: ``int`` also reads every
    other Unicode decimal digit ("٣" is 3), and this refuses them with
    ``int``'s own message."""
    if not text.isascii() and any(c.isdecimal() and not c.isascii() for c in text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_base(base: str) -> tuple[str, int | None]:
    """Read a base ring, "Z", "Q" or "Fp:<prime>" (blanks around it allowed,
    the prime read by ``parse_int``: "Fp:03" is "Fp:3", "Fp:٣" is refused), as
    ("Z", None), ("Q", None) or ("Fp", prime).  No other spelling is read."""
    s = str(base).strip()
    if s in ("Z", "Q"):
        return (s, None)
    if not s.startswith("Fp:"):
        raise ValueError(f"unknown base ring {base!r} (expected Z, Q or Fp:<prime>)")
    p = parse_int(s[3:])
    if not is_prime(p):
        raise ValueError(f"composite modulus rejected: {p}")
    return ("Fp", p)


# ---------------------------------------------------------------------------
# sparse integer matrices

class ExactMatrix:
    """Sparse integer matrix of shape ``rows`` x ``cols``, stored as its rows.

    ``_r`` maps each row that holds an entry to a ``{col: int}`` dict of
    its entries; no empty row and no zero is stored.  Input from outside
    goes through ``from_triplets``, the one constructor that checks it;
    the builders that produce their entries in range and as ints write
    ``_r`` directly: ``skos.complexes.assemble``, ``GradedComplex.from_record``
    (after checking each entry itself), ``__matmul__`` and ``named`` (a
    snapshot of rows one of these wrote).  The elimination
    kernel relies on it: it pivots on any stored entry over a field.

    ``_memo`` holds what the matrix reduces to, each filled on first use
    (``_memoized``): its unit core and the pivots of that core over Q and
    mod each prime, so a matrix is read-only once ranked.
    A named matrix (``named``) shares its memo with every matrix of its
    name, each of which has rows of its own, revived from one snapshot,
    and ``homology`` records there the incoming memo it checked d∘d = 0
    against; a write through ``_d`` detaches the memo.
    """

    __slots__ = ("rows", "cols", "_r", "_memo")

    def __init__(self, rows: int, cols: int):
        if type(rows) is not int or type(cols) is not int:
            raise TypeError(f"matrix shape must be of type int, got {rows!r} x {cols!r}")
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows, self.cols = rows, cols
        self._r: dict[int, dict[int, int]] = {}
        self._memo: dict = {}

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets: Iterable[tuple[int, int, int]]) -> "ExactMatrix":
        """Sum the values given for each entry; entries that sum to zero are dropped.

        The one constructor that checks its entries, each an ``int`` value
        at ``int`` indices inside the shape; ``from_dense``, ``identity``
        and callers outside the package build through it.  Rows and entries
        keep the order in which each is first named, as ``assemble`` does.
        """
        m = cls(rows, cols)
        for r, c, v in triplets:
            if type(r) is not int or type(c) is not int:
                raise TypeError(f"entry indices must be of type int, got ({r!r}, {c!r})")
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if not isinstance(v, int):
                raise TypeError(f"integer entries required, got {type(v).__name__}")
            row = m._r.setdefault(r, {})
            row[c] = row.get(c, 0) + v
        m._r = {r: kept for r, row in m._r.items() if (kept := {c: v for c, v in row.items() if v})}
        return m

    @classmethod
    def from_dense(cls, dense: list[list[int]]) -> "ExactMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        if any(len(row) != cols for row in dense):
            raise ValueError("ragged dense matrix")
        return cls.from_triplets(rows, cols, ((r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row)))

    @classmethod
    def identity(cls, n: int, scale: int = 1) -> "ExactMatrix":
        return cls.from_triplets(n, n, ((i, i, scale) for i in range(n)))

    @property
    def nnz(self) -> int:
        return sum(map(len, self._r.values()))

    def is_zero(self) -> bool:
        return not self._r

    def to_dense(self) -> list[list[int]]:
        return [[self._r.get(r, {}).get(c, 0) for c in range(self.cols)] for r in range(self.rows)]

    def triplets(self) -> list[tuple[int, int, int]]:
        return sorted([(r, c, row[c]) for r, row in self._r.items() for c in row])

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return ExactMatrix.from_triplets(self.rows, self.cols, self.triplets() + other.triplets())

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = ExactMatrix(self.rows, other.cols)
        for r, left in self._r.items():
            sums: dict[int, int] = {}
            for k, u in left.items():
                for c, v in other._r.get(k, {}).items():
                    sums[c] = sums.get(c, 0) + u * v
            if row := {c: v for c, v in sums.items() if v}:
                out._r[r] = row
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._r == other._r

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    _d = property(lambda self: _EntryView(self))


class _EntryView:
    """Entries by (row, col), written through and detaching the memo: only for
    the benchmark gate that forges a matrix, until it has a public constructor.
    A named memo and snapshot stay with the other matrices of its name,
    unchanged."""

    def __init__(self, m: ExactMatrix):
        self._m = m

    def __iter__(self):
        return ((r, c) for r, row in self._m._r.items() for c in row)

    def __getitem__(self, rc: tuple[int, int]) -> int:
        return self._m._r[rc[0]][rc[1]]

    def __setitem__(self, rc: tuple[int, int], v: int) -> None:
        m = self._m
        m._r = ExactMatrix.from_triplets(m.rows, m.cols, [t for t in m.triplets() if t[:2] != rc] + [(*rc, v)])._r
        m._memo = {}


# ---------------------------------------------------------------------------
# elimination

def _eliminate(rows: dict[int, dict], p: int | None = None,
               units: tuple | None = None) -> tuple[list[int], list, dict[int, dict]]:
    """Pivot on unit entries until no row holds one: (pivot rows, pivot values, rows left).

    ``rows`` maps each row to its entries; pivot rows and values come in
    pivot order.  Each pivot clears its column from the other rows that
    hold it, found through a column -> rows index, and then drops its own
    row: column operations on the pivot would clear the rest of that row
    without touching any other row.  So the rows left are the matrix with
    every pivot row and column deleted, and each keeps its key.  Over a
    field every nonzero entry is a unit and no row is left.  Over Z only
    +-1 are units, every step is unimodular, and the Smith form is
    (1,...,1) + the Smith form of the rows left.  ``units`` holds the
    units over Z, each its own inverse; over a field it is None and every
    stored entry, no zero being stored, is a unit, inverted mod ``p``
    (which reduces every entry) when it is given and as a ``Fraction``
    ``1 / v`` otherwise.  Rows are visited sparsest first, and each pivot
    is taken in its row's sparsest unit column, to keep fill-in down.

    Only rows that share a column are combined, so on a graded map this
    eliminates every graded block at once.
    """
    where: dict[int, list[int]] = defaultdict(list)  # counted, walked, appended to, or rid of a row it holds
    for i, row in rows.items():
        for c in row:
            where[c].append(i)
    todo = sorted(rows, key=lambda i: len(rows[i]))
    pivots, values = [], []
    while True:
        waiting = []
        for i in todo:
            row = rows[i]
            pc, least = -1, len(rows) + 1  # the sparsest unit column, the least on a tie
            for c, v in row.items():
                if units is None or v in units:
                    n = len(where[c])
                    if n < least or n == least and c < pc:
                        pc, least = c, n
            if pc < 0:
                waiting.append(i)
                continue
            for c in row:
                where[c].remove(i)
            pivots.append(i)
            values.append(v := row.pop(pc))
            pinv = v if units else pow(v, -1, p) if p else 1 / v
            for j in where.pop(pc):
                other = rows[j]
                f = other.pop(pc) * pinv
                for c, v in row.items():
                    nv = other.get(c, 0) - f * v
                    if p:
                        nv %= p
                    if nv:
                        if c not in other:
                            where[c].append(j)
                        other[c] = nv
                    elif c in other:
                        del other[c]
                        where[c].remove(j)
        if len(waiting) == len(todo):
            return pivots, values, {i: rows[i] for i in waiting if rows[i]}
        todo = waiting


def _smith_mod(core: list[dict[int, int]], D: int, r: int) -> tuple[int, ...]:
    """Invariant factors of a core of rank ``r`` over Q, worked modulo ``D``.

    ``D`` is a nonzero r x r minor of the core, so d1 ... dr divides it.
    Over Z/DZ the core is equivalent to diag(d1, ..., dr, 0, ...), and
    every diagonal matrix equivalent to it gives the same divisibility
    chain of gcds with D, a zero counting as D.  Entries are kept as
    residues of least absolute value, so none ever passes D/2.
    Euclidean row and column steps make a least nonzero entry alone in
    its row and column; its gcd with D is recorded and its row deleted.
    The first r terms of the chain, padded with D, are d1, ..., dr.
    """
    h = D // 2
    rows = [row for row in ({c: (v + h) % D - h for c, v in row.items() if v % D} for row in core) if row]
    found = []
    while rows:
        c = min((abs(v), c) for row in rows for c, v in row.items())[1]
        while True:
            holders = [row for row in rows if c in row]
            pivot = min(holders, key=lambda row: abs(row[c]))
            p = pivot[c]
            if len(holders) > 1:  # row steps: each other entry of column c drops below |p|
                for row in holders:
                    if row is not pivot:
                        q = row[c] // p
                        for k, v in pivot.items():
                            v = (row.get(k, 0) - q * v + h) % D - h
                            if v:
                                row[k] = v
                            else:
                                row.pop(k, None)
                continue
            # column steps: p is alone in column c, so they change the pivot row only
            for k in [k for k in pivot if k != c]:
                pivot[k] %= p
                if not pivot[k]:
                    del pivot[k]
            if len(pivot) == 1:
                break
            c = min(pivot, key=lambda k: abs(pivot[k]))
        found.append(math.gcd(p, D))
        rows = [row for row in rows if row and row is not pivot]
    for i in range(len(found)):  # gcd/lcm swaps sort each prime's exponents: a divisibility chain
        for j in range(i + 1, len(found)):
            found[i], found[j] = math.gcd(found[i], found[j]), math.lcm(found[i], found[j])
    return (tuple(found) + (D,) * r)[:r]


def _unit_core(M: ExactMatrix) -> tuple[list[int], dict[int, dict[int, int]]]:
    """Pivot on the +-1 entries of ``M`` over Z; return (pivot rows, residual core).

    The pivots form a block A11 with det A11 = +-1, and every step is
    unimodular, so the core rows, keyed by row, are the Schur complement
    A22 - A21 A11^-1 A12: integer entries, each a minor of ``M`` up to
    sign, and rank M = pivots + rank(core) over any field.  The kernel
    works on the one copy of the stored rows taken here; the +-1 pivot
    values it returns are dropped.
    """
    if not M._r:
        return [], {}
    units, _, core = _eliminate({i: dict(row) for i, row in M._r.items()}, units=(1, -1))
    return units, core


def _memoized(M: ExactMatrix, key, compute, *args):
    """``compute(*args)``, kept in the memo of ``M`` under ``key``.

    Every value is a function of the matrix alone, so two threads that
    fill the same key at once store equal values, as do two matrices of
    one name (``named``).
    """
    memo = M._memo
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


# Bound of the table of named differentials, least recently named dropped
# first.  Each name keeps its matrix's shape, a ``marshal`` snapshot of its
# rows and its memo.  The seed-1 homology_sweep requests (every Koszul and
# De Rham slice with a + b <= 4 and weight <= 5 over Z, Q and F_32003, and
# two weight-6 slices over Z) name 392 differentials, whose snapshots take
# 258 KB and whose memos hold 0.51 MB once ranked (tracemalloc, Python
# 3.11); build_koszul(0, 6, 8) names 8, whose snapshots take 0.56 MB for
# 43098 entries and whose memos hold 0.90 MB once ranked over the same
# three bases.  A name keeps bytes and a memo alive, not a matrix.
_NAMED_BOUND = 512
_named: OrderedDict = OrderedDict()
_named_lock = threading.Lock()
_named_counts = {"hits": 0, "misses": 0}


def named(name, build: Callable[[], ExactMatrix]) -> ExactMatrix:
    """The matrix ``build()`` makes, with the memo registered under ``name``.

    Every build of one name must make the same rows, so ``build`` runs
    only on a miss: its matrix is registered as ``(rows, cols, snapshot,
    memo)``, the snapshot being ``marshal.dumps`` of its rows, immutable
    bytes.  A hit returns a new matrix whose rows are revived from the
    snapshot, exact ints in the order ``build`` stored them, and whose
    memo is the registered one, so what one build reduced the next finds
    done.  Every matrix handed out has rows of its own: a write through
    ``_d`` forges that matrix alone.  Two threads that miss one name at
    once keep the first registration, and so one memo, which both fill
    as ``_memoized`` says.
    """
    with _named_lock:
        entry = _named.get(name)
        if entry is not None:
            _named.move_to_end(name)
            _named_counts["hits"] += 1
    if entry is None:
        M = build()
        fresh = (M.rows, M.cols, marshal.dumps(M._r, 2), M._memo)
        with _named_lock:
            _named_counts["misses"] += 1
            M._memo = _named.setdefault(name, fresh)[3]
            _named.move_to_end(name)
            if len(_named) > _NAMED_BOUND:
                _named.popitem(last=False)
        return M
    rows, cols, snapshot, memo = entry
    M = ExactMatrix(rows, cols)
    M._r, M._memo = marshal.loads(snapshot), memo
    return M


def named_info() -> dict[str, int]:
    """Hits and misses of ``named`` in this process, and the names held and
    the bytes of their snapshots now, read at one moment."""
    with _named_lock:
        return {**_named_counts, "names": len(_named),
                "snapshot_bytes": sum(len(entry[2]) for entry in _named.values())}


def _pivots(M: ExactMatrix) -> tuple[list[int], dict[int, dict[int, int]], dict[int, Fraction]]:
    """The unit pivot rows and the core of ``M``, and the pivot over Q of each
    core row that pivots, kept in the memo of ``M`` for its rank over Q
    and its Smith form alike."""
    units, core = _memoized(M, "core", _unit_core, M)
    return units, core, _memoized(M, "Q", _core_pivots, core)


def _core_pivots(core: dict[int, dict[int, int]]) -> dict[int, Fraction]:
    """The pivot value over Q, as the kernel returns it, of each core row
    that pivots.  The product of the pivots of rows combined with no other
    row (one parity block's) is a nonzero minor of them: Gaussian steps keep it."""
    if not core:
        return {}
    pivots, values, _ = _eliminate({i: {c: Fraction(v) for c, v in row.items()} for i, row in core.items()})
    return dict(zip(pivots, values))


def _block_factors(M: ExactMatrix, parities: Sequence[int]) -> list[tuple[int, ...]]:
    """Invariant factors of the even and of the odd block of the even map
    ``M``, whose row r has parity ``parities[r]``: a block's core is the
    core rows of its parity, worked modulo the product of their pivots,
    its unit and Q pivot rows of each parity counted as ``rank`` counts."""
    units, core, pivots = _pivots(M)
    groups, minors = ([], []), [1, 1]
    for i, row in core.items():
        groups[parities[i]].append(row)
    for i, v in pivots.items():
        minors[parities[i]] *= v
    return [(1,) * n + _smith_mod(groups[e], abs(int(minors[e])), r)
            for e, (n, r) in enumerate(zip(_count(units, (), parities), _count((), pivots, parities)))]


def smith_normal_form(M: ExactMatrix | list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors d1 | d2 | ... | dr and the rank over Q.

    Unit pivots are eliminated sparsely; only the residual core, where
    no entry is +-1, goes to the Smith form modulo one of its minors.
    """
    if not isinstance(M, ExactMatrix):
        M = ExactMatrix.from_dense([list(r) for r in M])
    factors = _block_factors(M, (0,) * M.rows)[0]  # every row in one block
    return factors, len(factors)


# ---------------------------------------------------------------------------
# ranks over fields

def _count(units: Sequence[int], pivots: Iterable[int], parities: Sequence[int] | None):
    """How many pivot rows there are, the unit pivot rows and the core's pivot
    rows over one field together, or how many of each parity."""
    rows = (*units, *pivots)
    if parities is None:
        return len(rows)
    odd = sum(map(parities.__getitem__, rows))
    return SuperDim(len(rows) - odd, odd)


def _rank_fractions(M: ExactMatrix, parities: Sequence[int] | None = None):
    """Rank over Q, by parity as ``rank`` gives it: the +-1 pivots on ``int``
    entries, then the core over Q, exact by the Schur-complement argument
    of ``_unit_core``.  Only the core's entries become ``Fraction``s."""
    units, _, pivots = _pivots(M)
    return _count(units, pivots, parities)


def _rank_mod_p(M: ExactMatrix, p: int) -> list[int]:
    """The pivot rows over F_p of the core of ``M`` reduced mod p, which drops
    the multiples of p: with the unit pivot rows, those of ``M`` itself.  The
    unit core is the one kept in the memo of ``M`` for Z and Q alike."""
    core = _memoized(M, "core", _unit_core, M)[1]
    rows = {i: left for i, row in core.items() if (left := {c: v % p for c, v in row.items() if v % p})}
    return _eliminate(rows, p)[0] if rows else []


def rank(M: ExactMatrix, base="Q", parities: Sequence[int] | None = None):
    """Exact rank of an integer matrix over the given base's field.

    Over Z this is the rank over Q (the kernel of an integer matrix is
    a free lattice of the complementary rank).  Given the parity (0 or 1)
    of each row of an even map (no entry joins a row and a column of
    different parity), the ranks of its even and odd block as a
    ``SuperDim``: its unit and core pivot rows of each parity.  Every reduction
    is kept in the memo of ``M``: the unit core once, its pivots once per field.
    """
    kind, p = parse_base(base)
    if kind == "Fp":
        units = _memoized(M, "core", _unit_core, M)[0]
        return _count(units, _memoized(M, p, _rank_mod_p, M, p), parities)
    return _rank_fractions(M, parities)


def kernel_rank(M: ExactMatrix, base="Q") -> int:
    """cols - rank over the base field."""
    return M.cols - rank(M, base)


# ---------------------------------------------------------------------------
# homology

@dataclass(frozen=True)
class HomologySummary:
    """Per-position homology: free ranks by parity, torsion by parity.

    Invariant factors in each torsion list divide successively and are
    all > 1.
    """

    position: int
    free: SuperDim
    torsion_even: tuple[int, ...]
    torsion_odd: tuple[int, ...]

    def to_record(self) -> dict:
        return {
            "position": self.position,
            "even_rank": self.free.even,
            "odd_rank": self.free.odd,
            "torsion_even": list(self.torsion_even),
            "torsion_odd": list(self.torsion_odd),
        }

    def __str__(self) -> str:
        return (
            f"position={self.position} free={self.free} "
            f"torsion_even={list(self.torsion_even)} torsion_odd={list(self.torsion_odd)}"
        )


def _block_homology_z(in_m: ExactMatrix, parities: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Torsion of the homology over Z on the even and on the odd block.

    ker(out) is a direct summand of the lattice, so the torsion of the
    homology is the torsion of coker(in): the invariant factors > 1 of
    each block of ``in_m`` alone, whose rows have the given ``parities``.
    """
    even, odd = _block_factors(in_m, parities)
    return tuple(f for f in even if f > 1), tuple(f for f in odd if f > 1)


def _check_homotopy(C: "GradedComplex", p: int | None, h: HomologySummary) -> None:
    """If ``C.killed_by`` is an integer n other than 0 and p does not divide n,
    there is no free part over Q, Z or F_p, and over Z every invariant factor
    divides n.  A violation raises ArithmeticError naming it."""
    n = C.killed_by
    if not n or p and n % p == 0:
        return
    where = f"homotopy check fails at position {h.position} of a {C.kind} complex killed by {n}"
    if h.free.total:
        raise ArithmeticError(f"{where}: free rank {h.free} is not zero")
    for f in h.torsion_even + h.torsion_odd:
        if n % f:
            raise ArithmeticError(f"{where}: invariant factor {f} does not divide {n}")


def homology(C: "GradedComplex", base, position: int) -> HomologySummary:
    """Homology of a graded complex at one position, split by parity.

    Requires the position and both neighbors to be materialized (or
    provably zero beyond the complex's support); raises WindowError
    otherwise, and ArithmeticError if the differentials leaving and
    entering the position do not compose to zero or the answer breaks
    a homotopy that kills it (``_check_homotopy``).  Over fields the torsion
    lists are empty; over Z the invariant factors > 1 of the incoming
    differential are reported.  Each parity block's rank is counted off
    one elimination of its whole differential, kept in its memo.  The
    memo of the outgoing differential keeps the memo of the incoming one
    it was checked against: a memo is shared only by equal matrices, and
    a write detaches it, so the same pair of memos is not checked again.
    """
    kind, p = parse_base(base)
    out_m = C.outgoing(position)
    in_m = C.incoming(position)
    # a product with an entry-free factor has no entries, and a pair of memos is checked once
    if out_m._r and in_m._r and out_m._memo.get("dd") is not in_m._memo:
        dd = out_m @ in_m
        if not dd.is_zero():
            raise ArithmeticError(
                f"not a complex at position {position}: d∘d has {dd.nnz} nonzero entries"
            )
        out_m._memo["dd"] = in_m._memo
    here = C.basis_at[position]
    above = C.basis_at[position + 1].parities if out_m._r else ()  # an entry-free rank reads none
    free = here.dims() - rank(out_m, base, above) - rank(in_m, base, here.parities)
    torsion = _block_homology_z(in_m, here.parities) if kind == "Z" else ((), ())
    h = HomologySummary(position, free, *torsion)
    _check_homotopy(C, p, h)
    return h
