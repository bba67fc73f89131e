"""Exact linear algebra over Z, Q and prime fields.

All matrices carry arbitrary-precision integer entries; base change to
Q or F_p happens here, at rank-computation time.  Rank over Q and F_p
and the Smith normal form over Z share one sparse elimination kernel
that pivots only on units.  Over Z and Q it first runs on the plain
integer rows with +-1 as the only units.  Those pivots form a block of
determinant +-1, so the rows left, the residual core, are its Schur
complement: an integer matrix with entries bounded by minors of the
input, whose rank is the rank of the input minus the pivot count.  Over
Q the core is ranked by the same kernel over ``Fraction``, so no other
entry ever becomes a fraction.  The product D of that elimination's
pivots is a nonzero minor of the core, so every invariant factor of the
core divides D: over Z the core's Smith form is worked modulo D, and no
entry ever grows past D/2.  Each pivot is taken in the sparsest column
its row offers, the least on a tie (the column rule of structured
Gaussian elimination, LaMacchia and Odlyzko, CRYPTO '90).

Homology of a graded complex is reported per parity block: free ranks
always, and over Z the torsion, which is read off the invariant factors
of the incoming differential alone.  Every homology call first checks
that the two differentials at the position compose to zero.

Each block is eliminated once per complex: each differential keeps its
parity split (``parity_split``), and each block its unit core, its rank
over Q, its invariant factors and its rank mod each prime, each computed
on first use.  Over Z the rank over Q of the outgoing block at one
position and the Smith form of the same block, incoming at the next,
read one shared unit core, and the Smith form reads D from the memo of
the rank over Q.

Every slice ends in zero modules, so many differentials and blocks store
no entry.  Such a matrix costs nothing: it is not multiplied for the
d∘d check, it is split without a pass over any basis (each ``FreeBasis``
keeps the positions the split reads), and its unit core, its rank over
Q and its rank mod p are 0 (with D = 1) without a row or an elimination.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from skos.multilinear import FreeBasis, SuperDim

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
    for every block.  Raises ValueError at or past ``_PRIME_BOUND``."""
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


def parse_base(base) -> tuple[str, int | None]:
    """Normalize a base-ring descriptor: "Z", "Q" or "Fp:<prime>"."""
    if isinstance(base, tuple) and len(base) == 2:
        kind, p = base
    else:
        s = str(base).strip()
        if s in ("Z", "ZZ"):
            return ("Z", None)
        if s in ("Q", "QQ"):
            return ("Q", None)
        if s.startswith("Fp:"):
            kind, p = "Fp", int(s[3:])
        else:
            raise ValueError(f"unknown base ring {base!r} (expected Z, Q or Fp:<prime>)")
    if kind in ("Z", "Q"):
        return (kind, None)
    if kind != "Fp":
        raise ValueError(f"unknown base ring {base!r}")
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
    (after checking each entry itself), ``parity_blocks``, ``__add__``
    and ``__matmul__``.  The elimination kernel relies on it: it pivots
    on any stored entry over a field.

    ``_memo`` holds what the matrix reduces to, each filled on first use:
    its parity blocks (``parity_split``), its unit core, its rank over Q
    with the core minor D, its invariant factors, its rank mod each prime.
    So a matrix is read-only once it is split or ranked.
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

    def parity_blocks(self, row_parity: Sequence[int], col_parity: Sequence[int],
                      row_positions: tuple[Sequence[int], Sequence[int]],
                      col_positions: tuple[Sequence[int], Sequence[int]]) -> tuple["ExactMatrix", "ExactMatrix"]:
        """The even and the odd diagonal block, split in one pass over the entries.

        ``row_parity[r]`` and ``col_parity[c]`` are 0 or 1.  Each positions
        argument is a pair: each index's position among the indices of its
        parity, and the two counts, as ``FreeBasis.positions`` keeps them.
        Each block keeps its rows and columns in their original order;
        entries that join a row and a column of different parity belong to
        neither block.  ``parity_split`` keeps the blocks in the memo of
        the matrix they come from.
        """
        (rpos, rows), (cpos, cols) = row_positions, col_positions
        blocks = (ExactMatrix(rows[0], cols[0]), ExactMatrix(rows[1], cols[1]))
        parts = (blocks[0]._d, blocks[1]._d)
        for (r, c), v in self._d.items():
            parity = row_parity[r]
            if parity == col_parity[c]:
                parts[parity][rpos[r], cpos[c]] = v
        return blocks

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        out = dict(self._d)
        for rc, v in other._d.items():
            s = out.get(rc, 0) + v
            if s:
                out[rc] = s
            else:
                out.pop(rc, None)
        m = ExactMatrix(self.rows, self.cols)
        m._d = out
        return m

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

def _rows(M: ExactMatrix, p: int | None = None) -> list[dict]:
    """Nonzero rows of ``M`` as sparse {column: entry} dicts, in the order
    each row first occurs in ``M._d``.  Entries are copied as they are,
    or reduced mod ``p`` when it is given, which drops the multiples of
    ``p``; no other entry can be zero, as ``M`` stores none.
    """
    grouped: dict[int, dict] = defaultdict(dict)
    if p is None:
        for (r, c), v in M._d.items():
            grouped[r][c] = v
    else:
        for (r, c), v in M._d.items():
            v %= p
            if v:
                grouped[r][c] = v
    return list(grouped.values())


def _eliminate(rows: list[dict], inverse, p: int | None = None,
               units: tuple | None = None) -> tuple[int, list[dict]]:
    """Pivot on unit entries until no row holds one; return (pivots, rows left).

    Each pivot clears its column from the other rows that hold it, found
    through a column -> rows index, and then drops its own row: column
    operations on the pivot would clear the rest of that row without
    touching any other row.  So the rows left are the matrix with every
    pivot row and column deleted.  Over a field every nonzero entry is a
    unit and no row is left.  Over Z only +-1 are units, every step is
    unimodular, and the Smith form is (1,...,1) + the Smith form of the
    rows left.  ``units`` holds the unit values over Z; over a field it
    is None and every stored entry is a unit, as no row stores a zero.
    Entries are reduced mod ``p`` when it is given.  Rows are visited
    sparsest first, and each pivot is taken in the sparsest column its
    row offers, to keep fill-in down.
    """
    where: dict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    todo = sorted(range(len(rows)), key=lambda i: len(rows[i]))
    while True:
        waiting = []
        for i in todo:
            row = rows[i]
            held = row if units is None else [c for c, v in row.items() if v in units]
            if not held:
                waiting.append(i)
                continue
            pc, least = -1, len(rows) + 1  # the sparsest column, the least on a tie
            for c in held:
                n = len(where[c])
                if n < least or n == least and c < pc:
                    pc, least = c, n
            for c in row:
                where[c].discard(i)
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
            return len(rows) - len(waiting), [rows[i] for i in waiting if rows[i]]
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


def _unit_core(M: ExactMatrix) -> tuple[int, list[dict[int, int]]]:
    """Pivot on the +-1 entries of ``M`` over Z; return (pivots, residual core).

    The pivots form a block A11 with det A11 = +-1, and every step is
    unimodular, so the core rows are the Schur complement
    A22 - A21 A11^-1 A12: integer entries, each a minor of ``M`` up to
    sign, and rank M = pivots + rank(core) over any field.
    """
    if not M._d:
        return 0, []
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


def parity_split(M: ExactMatrix, rows: FreeBasis, cols: FreeBasis) -> tuple[ExactMatrix, ExactMatrix]:
    """The even and the odd block of ``M``, a map from ``cols`` to ``rows``,
    split on first use and kept in the memo of ``M`` with what each block
    reduces to: whoever holds ``M`` eliminates each block once per base field."""
    return _memoized(M, "blocks", M.parity_blocks, rows.parities, cols.parities, rows.positions, cols.positions)


def _core(M: ExactMatrix) -> tuple[int, list[dict[int, int]]]:
    """``_unit_core(M)``, shared by the Smith form and the rank over Q of a
    block; both only read the core rows."""
    return _memoized(M, "core", _unit_core, M)


def _smith_factors(M: ExactMatrix) -> tuple[int, ...]:
    units, core = _core(M)
    rank_q, D = _memoized(M, "Q", _core_rank_fractions, units, core)
    return (1,) * units + _smith_mod(core, D, rank_q - units)


def smith_normal_form(M: ExactMatrix | list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors d1 | d2 | ... | dr and the rank over Q.

    Unit pivots are eliminated sparsely; only the residual core, where
    no entry is +-1, goes to the Smith form modulo one of its minors.
    """
    if not isinstance(M, ExactMatrix):
        M = ExactMatrix.from_dense([list(r) for r in M])
    factors = _memoized(M, "Z", _smith_factors, M)
    return factors, len(factors)


# ---------------------------------------------------------------------------
# ranks over fields

def _rank_fractions(M: ExactMatrix) -> int:
    """Rank over Q: the +-1 pivots on ``int`` entries, then the core over Q.

    The Schur-complement argument of ``_unit_core`` makes the sum exact.
    Only the core's entries become ``Fraction``s.
    """
    return _memoized(M, "Q", _core_rank_fractions, *_core(M))[0]


def _core_rank_fractions(units: int, core: list[dict[int, int]]) -> tuple[int, int]:
    """The rank over Q, and D: the absolute product of the core's pivots.

    The kernel eliminates the core by Gaussian steps, so the product of
    its pivots is the determinant of the submatrix on their rows and
    columns: a nonzero minor of the core, which ``_smith_mod`` works modulo.
    """
    if not core:
        return units, 1
    pivots = []

    def inverse(v):
        pivots.append(v)
        return 1 / v

    fractions = [{c: Fraction(v) for c, v in row.items()} for row in core]
    return units + _eliminate(fractions, inverse)[0], abs(int(math.prod(pivots)))


def _rank_mod_p(M: ExactMatrix, p: int) -> int:
    if not M._d:
        return 0
    return _eliminate(_rows(M, p), lambda v: pow(v, -1, p), p)[0]


def rank(M: ExactMatrix, base="Q") -> int:
    """Exact rank of an integer matrix over the given base's field.

    Over Z this is the rank over Q (the kernel of an integer matrix is
    a free lattice of the complementary rank).
    """
    kind, p = parse_base(base)
    if kind == "Fp":
        return _memoized(M, p, _rank_mod_p, M, p)
    return _rank_fractions(M)


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


def _block_homology_z(out_block: ExactMatrix, in_block: ExactMatrix) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion of ker(out)/im(in) over Z for one parity block.

    ker(out) is a direct summand of the lattice, so the torsion of the
    homology is the torsion of coker(in): the invariant factors > 1 of
    ``in`` alone.
    """
    factors, rank_in = smith_normal_form(in_block)
    free = out_block.cols - _rank_fractions(out_block) - rank_in
    return free, tuple(f for f in factors if f > 1)


def homology(C: "GradedComplex", base, position: int) -> HomologySummary:
    """Homology of a graded complex at one position, split by parity.

    Requires the position and both neighbors to be materialized (or
    provably zero beyond the complex's support); raises WindowError
    otherwise, and ArithmeticError if the differentials leaving and
    entering the position do not compose to zero.  Over fields the
    torsion lists are empty; over Z the invariant factors > 1 of the
    incoming differential are reported.  Each differential keeps its
    blocks and their reductions (``parity_split``), so a sweep over every
    position eliminates each block once per base field.
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
    here, edge = C.basis_at[position], FreeBasis(C.gens)
    out_blocks = parity_split(out_m, C.basis_at.get(position + 1, edge), here)
    in_blocks = parity_split(in_m, here, C.basis_at.get(position - 1, edge))

    free = {}
    torsion = {}
    for parity in (0, 1):
        out_block, in_block = out_blocks[parity], in_blocks[parity]
        if kind == "Z":
            free[parity], torsion[parity] = _block_homology_z(out_block, in_block)
        else:
            fbase = (kind, p)
            ker = out_block.cols - rank(out_block, fbase)
            free[parity] = ker - rank(in_block, fbase)
            torsion[parity] = ()
    return HomologySummary(position, SuperDim(free[0], free[1]), torsion[0], torsion[1])
