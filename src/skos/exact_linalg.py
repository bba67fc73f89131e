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
parity.  Each differential keeps its unit core, its pivots over Q and
its pivot rows mod each prime, each computed on first use, so it is
copied and reduced whole once, whatever the bases, and only its core
once more per base field; an entry-free one is never eliminated.
Every homology call checks d∘d = 0 and, on Koszul, De Rham and
specialized complexes, that an integer known to kill the homology does.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

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


def parse_base(base: str) -> tuple[str, int | None]:
    """Normalize a base-ring descriptor: "Z", "Q" or "Fp:<prime>"."""
    s = str(base).strip()
    if s in ("Z", "ZZ"):
        return ("Z", None)
    if s in ("Q", "QQ"):
        return ("Q", None)
    if not s.startswith("Fp:"):
        raise ValueError(f"unknown base ring {base!r} (expected Z, Q or Fp:<prime>)")
    p = int(s[3:])
    if not is_prime(p):
        raise ValueError(f"composite modulus rejected: {p}")
    return ("Fp", p)


# ---------------------------------------------------------------------------
# sparse integer matrices

class ExactMatrix:
    """Sparse integer matrix in coordinate form; no explicit zeros stored.

    ``_d`` maps (row, col) to a nonzero ``int``.  Input from outside goes
    through ``from_triplets``, the one constructor that checks it; the
    builders that produce their entries in range and as ints write ``_d``
    directly: ``skos.complexes.assemble``, ``GradedComplex.from_record``
    (after checking each entry itself) and ``__matmul__``.
    The elimination kernel relies on it: it pivots on any stored entry
    over a field.

    ``_memo`` holds what the matrix reduces to, each filled on first use
    (``_memoized``): its unit core, the pivot of each core row over Q and
    its pivot rows mod each prime.  So a matrix is read-only once it is
    ranked.
    """

    __slots__ = ("rows", "cols", "_d", "_memo")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        self._d: dict[tuple[int, int], int] = {}
        self._memo: dict = {}

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets: Iterable[tuple[int, int, int]]) -> "ExactMatrix":
        """Sum the values given for each entry; entries that sum to zero are dropped.

        The one constructor that checks its entries: each must lie inside
        the shape and sum to an ``int``.  ``from_dense``, ``identity`` and
        callers outside the package build through it; entries keep the
        order in which each first occurs.
        """
        m = cls(rows, cols)
        acc: dict[tuple[int, int], int] = defaultdict(int)
        for r, c, v in triplets:
            acc[(r, c)] += v
        d = m._d
        for (r, c), v in acc.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if not isinstance(v, int):
                raise TypeError(f"integer entries required, got {type(v).__name__}")
            if v:
                d[(r, c)] = v
        return m

    @classmethod
    def from_dense(cls, dense: list[list[int]]) -> "ExactMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        if any(len(row) != cols for row in dense):
            raise ValueError("ragged dense matrix")
        return cls.from_triplets(rows, cols, ((r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int, scale: int = 1) -> "ExactMatrix":
        return cls.from_triplets(n, n, ((i, i, scale) for i in range(n)))

    @property
    def nnz(self) -> int:
        return len(self._d)

    def is_zero(self) -> bool:
        return not self._d

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._d.items():
            dense[r][c] = v
        return dense

    def triplets(self) -> list[tuple[int, int, int]]:
        return sorted((r, c, v) for (r, c), v in self._d.items())

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return ExactMatrix.from_triplets(self.rows, self.cols, (
            (r, c, v) for d in (self._d, other._d) for (r, c), v in d.items()))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for (k, c), v in other._d.items():
            by_row[k].append((c, v))
        sums: dict[int, dict[int, int]] = defaultdict(dict)
        for (r, k), u in self._d.items():
            right = by_row.get(k)
            if right:
                row = sums[r]
                for c, v in right:
                    row[c] = row.get(c, 0) + u * v
        out = ExactMatrix(self.rows, other.cols)
        d = out._d
        for r, row in sums.items():
            for c, v in row.items():
                if v:
                    d[r, c] = v
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._d == other._d

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# elimination

def _rows(M: ExactMatrix) -> dict[int, dict]:
    """Nonzero rows of ``M`` as sparse {column: entry} dicts keyed by row,
    in the order each row first occurs in ``M._d``."""
    grouped: dict[int, dict] = defaultdict(dict)
    for (r, c), v in M._d.items():
        grouped[r][c] = v
    return grouped


def _eliminate(rows: dict[int, dict], inverse, p: int | None = None,
               units: tuple | None = None) -> tuple[list[int], dict[int, dict]]:
    """Pivot on unit entries until no row holds one; return (pivot rows, rows left).

    ``rows`` maps each row to its entries.  Each pivot clears its column
    from the other rows that hold it, found through a column -> rows
    index, and then drops its own row: column operations on the pivot
    would clear the rest of that row without touching any other row.  So
    the rows left are the matrix with every pivot row and column deleted,
    and each keeps its key.  Over a field every nonzero entry is a unit
    and no row is left.  Over Z only +-1 are units, every step is
    unimodular, and the Smith form is (1,...,1) + the Smith form of the
    rows left.  ``units`` holds the unit values over Z; over a field it
    is None and every stored entry is a unit, as no row stores a zero.
    Entries are reduced mod ``p`` when it is given.  Rows are visited
    sparsest first, and each pivot is taken in the sparsest column its
    row offers a unit in, to keep fill-in down, in one pass over the row.

    Only rows that share a column are combined, so on a graded map this
    eliminates every graded block at once.
    """
    where: dict[int, set[int]] = defaultdict(set)
    for i, row in rows.items():
        for c in row:
            where[c].add(i)
    todo = sorted(rows, key=lambda i: len(rows[i]))
    pivots = []
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
                where[c].discard(i)
            pivots.append(i)
            pinv = inverse(row.pop(pc))
            for j in where.pop(pc):
                other = rows[j]
                f = other.pop(pc) * pinv
                for c, v in row.items():
                    nv = other.get(c, 0) - f * v
                    if p:
                        nv %= p
                    if nv:
                        if c not in other:
                            where[c].add(j)
                        other[c] = nv
                    elif c in other:
                        del other[c]
                        where[c].discard(j)
        if len(waiting) == len(todo):
            return pivots, {i: rows[i] for i in waiting if rows[i]}
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
    sign, and rank M = pivots + rank(core) over any field.
    """
    if not M._d:
        return [], {}
    # +-1 is its own inverse, so ``int`` serves as the inverse map
    return _eliminate(_rows(M), int, units=(1, -1))


def _memoized(M: ExactMatrix, key, compute, *args):
    """``compute(*args)``, kept in the memo of ``M`` under ``key``.

    Every value is a function of the matrix alone, so two threads that
    fill the same key at once store equal values.
    """
    memo = M._memo
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


def _pivots(M: ExactMatrix) -> tuple[list[int], dict[int, dict[int, int]], dict[int, Fraction]]:
    """The unit pivot rows and the core of ``M``, and the pivot over Q of each
    core row that pivots, kept in the memo of ``M`` for its rank over Q
    and its Smith form alike."""
    units, core = _memoized(M, "core", _unit_core, M)
    return units, core, _memoized(M, "Q", _core_pivots, core)


def _core_pivots(core: dict[int, dict[int, int]]) -> dict[int, Fraction]:
    """The pivot of each core row that pivots over Q, keyed by row.  The
    product of the pivots of rows combined with no other row (one parity
    block's) is a nonzero minor of those rows: Gaussian steps keep it."""
    if not core:
        return {}
    pivots = []

    def inverse(v):
        pivots.append(v)
        return 1 / v

    fractions = {i: {c: Fraction(v) for c, v in row.items()} for i, row in core.items()}
    return dict(zip(_eliminate(fractions, inverse)[0], pivots))


def _block_factors(M: ExactMatrix, parities: Sequence[int]) -> list[tuple[int, ...]]:
    """Invariant factors of the even and of the odd block of the even map
    ``M``, whose row r has parity ``parities[r]``: a block's core is the
    core rows of its parity, worked modulo the product of their pivots."""
    units, core, pivots = _pivots(M)
    odd = sum(map(parities.__getitem__, units))
    groups, minors, ranks = ([], []), [1, 1], [0, 0]
    for i, row in core.items():
        groups[parities[i]].append(row)
    for i, v in pivots.items():
        minors[parities[i]] *= v
        ranks[parities[i]] += 1
    return [(1,) * n + _smith_mod(groups[e], abs(int(minors[e])), ranks[e])
            for e, n in ((0, len(units) - odd), (1, odd))]


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

def _count(pivots: Iterable[Sequence[int]], parities: Sequence[int] | None):
    """How many pivot rows there are, or how many of each parity."""
    total = odd = 0
    for rows in pivots:
        total += len(rows)
        if parities is not None:
            odd += sum(map(parities.__getitem__, rows))
    return total if parities is None else SuperDim(total - odd, odd)


def _rank_fractions(M: ExactMatrix, parities: Sequence[int] | None = None):
    """Rank over Q, by parity as ``rank`` gives it: the +-1 pivots on ``int``
    entries, then the core over Q, exact by the Schur-complement argument
    of ``_unit_core``.  Only the core's entries become ``Fraction``s."""
    units, _, pivots = _pivots(M)
    return _count((units, pivots), parities)


def _rank_mod_p(M: ExactMatrix, p: int) -> list[int]:
    """The pivot rows of ``M`` over F_p: its unit pivot rows, then the pivot
    rows of its core reduced mod p, which drops the multiples of p.  The
    unit core is the one kept in the memo of ``M`` for Z and Q alike."""
    units, core = _memoized(M, "core", _unit_core, M)
    rows = {i: {c: v % p for c, v in row.items() if v % p} for i, row in core.items()}
    if not any(rows.values()):
        return units
    return units + _eliminate(rows, lambda v: pow(v, -1, p), p)[0]


def rank(M: ExactMatrix, base="Q", parities: Sequence[int] | None = None):
    """Exact rank of an integer matrix over the given base's field.

    Over Z this is the rank over Q (the kernel of an integer matrix is
    a free lattice of the complementary rank).  Given the parity (0 or 1)
    of each row of an even map (no entry joins a row and a column of
    different parity), the ranks of its even and odd block as a
    ``SuperDim``: its pivot rows of each parity.  Every reduction is kept
    in the memo of ``M``: the unit core once, its rest once per field.
    """
    kind, p = parse_base(base)
    if kind == "Fp":
        return _count((_memoized(M, p, _rank_mod_p, M, p),), parities)
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
    """An integer n kills the homology: the weight of a Koszul or De Rham
    slice, as i_E d + d i_E = n (``skos.super_poly.exterior_d``), and
    gcd(omega) on a specialized complex, as dx_i ^ . is a homotopy from
    omega_i to 0 (Eisenbud, ch. 17).  Unless n = 0 or p divides n, there is
    no free part over Q, Z or F_p, and over Z every invariant factor
    divides n.  A violation raises ArithmeticError naming it."""
    n = C.weight if C.omega is None else math.gcd(*C.omega)
    if C.kind == "berezinian" or not n or p and n % p == 0:
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
    one elimination of its whole differential, kept in its memo.
    """
    kind, p = parse_base(base)
    out_m = C.outgoing(position)
    in_m = C.incoming(position)
    if out_m._d and in_m._d:  # a product with an entry-free factor has no entries
        dd = out_m @ in_m
        if not dd.is_zero():
            raise ArithmeticError(
                f"not a complex at position {position}: d∘d has {dd.nnz} nonzero entries"
            )
    here = C.basis_at[position]
    above = C.basis_at[position + 1].parities if out_m._d else ()  # an entry-free rank reads none
    free = here.dims() - rank(out_m, base, above) - rank(in_m, base, here.parities)
    torsion = _block_homology_z(in_m, here.parities) if kind == "Z" else ((), ())
    h = HomologySummary(position, free, *torsion)
    _check_homotopy(C, p, h)
    return h
