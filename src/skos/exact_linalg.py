"""Exact linear algebra over Z, Q and prime fields.

All matrices carry arbitrary-precision integer entries; base change to
Q or F_p happens here, at rank-computation time.  Rank over Q and F_p
and the Smith normal form over Z share one sparse elimination kernel
that pivots only on units.  Over Z and Q it first runs on the plain
integer rows with +-1 as the only units.  Those pivots form a block of
determinant +-1, so the rows left, the residual core, are its Schur
complement: an integer matrix with entries bounded by minors of the
input, whose rank is the rank of the input minus the pivot count.  Over
Z the core goes to a dense Smith form; over Q it is ranked by the same
kernel over ``Fraction``, so no other entry ever becomes a fraction.

Homology of a graded complex is reported per parity block: free ranks
always, and over Z the torsion, which is read off the invariant factors
of the incoming differential alone.  Every homology call first checks
that the two differentials at the position compose to zero.

Each differential block is eliminated once per complex: a complex keeps
the parity split of each differential, and each block keeps its unit
core, its rank over Q, its invariant factors and its rank mod each
prime, each computed on first use.  Over Z the rank over Q of the
outgoing block at one position and the Smith form of the same block,
incoming at the next, read one shared unit core.
"""

from __future__ import annotations

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

@lru_cache(maxsize=32)
def is_prime(p: int) -> bool:
    """Trial division, once per modulus: ``parse_base`` asks again for every block."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
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

def _positions(parities: Sequence[int]) -> tuple[list[int], list[int]]:
    """Each index's position among the indices of its parity, and the two counts."""
    counts = [0, 0]
    pos = []
    for p in parities:
        pos.append(counts[p])
        counts[p] += 1
    return pos, counts


class ExactMatrix:
    """Sparse integer matrix in coordinate form; no explicit zeros stored.

    ``_memo`` is None, except on the blocks ``parity_blocks`` returns: there
    it holds what the block reduces to (its unit core, its rank over Q, its
    invariant factors, its rank mod each prime), each filled on first use.
    Those blocks are read-only once split.
    """

    __slots__ = ("rows", "cols", "_d", "_memo")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        self._d: dict[tuple[int, int], int] = {}
        self._memo: dict | None = None

    def _set(self, r: int, c: int, v: int) -> None:
        if not 0 <= r < self.rows or not 0 <= c < self.cols:
            raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        if not isinstance(v, int):
            raise TypeError(f"integer entries required, got {type(v).__name__}")
        if v:
            self._d[(r, c)] = v

    @classmethod
    def from_triplets(cls, rows: int, cols: int, triplets: Iterable[tuple[int, int, int]]) -> "ExactMatrix":
        """Sum the values given for each entry; entries that sum to zero are dropped."""
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
        m = cls(rows, cols)
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged dense matrix")
            for c, v in enumerate(row):
                m._set(r, c, v)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int, scale: int = 1) -> "ExactMatrix":
        m = cls(n, n)
        for i in range(n):
            m._set(i, i, scale)
        return m

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

    def parity_blocks(self, row_parity: Sequence[int],
                      col_parity: Sequence[int]) -> tuple["ExactMatrix", "ExactMatrix"]:
        """The even and the odd diagonal block, split in one pass over the entries.

        ``row_parity[r]`` and ``col_parity[c]`` are 0 or 1.  Each block keeps
        its rows and columns in their original order; entries that join a
        row and a column of different parity belong to neither block.  Each
        block keeps a memo of its reductions, so whoever holds on to a block
        eliminates it once per base field.
        """
        (rpos, rows), (cpos, cols) = (_positions(p) for p in (row_parity, col_parity))
        blocks = (ExactMatrix(rows[0], cols[0]), ExactMatrix(rows[1], cols[1]))
        for (r, c), v in self._d.items():
            parity = row_parity[r]
            if parity == col_parity[c]:
                blocks[parity]._d[(rpos[r], cpos[c])] = v
        for block in blocks:
            block._memo = {}
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
        acc: dict[tuple[int, int], int] = defaultdict(int)
        for (r, k), u in self._d.items():
            for c, v in by_row.get(k, ()):
                acc[(r, c)] += u * v
        out = ExactMatrix(self.rows, other.cols)
        for rc, v in acc.items():
            if v:
                out._d[rc] = v
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._d == other._d

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# elimination

def _rows(M: ExactMatrix, convert) -> list[dict]:
    """Nonzero rows of ``M`` as sparse {column: entry} dicts, entries converted."""
    grouped: dict[int, dict] = defaultdict(dict)
    for (r, c), v in M._d.items():
        v = convert(v)
        if v:
            grouped[r][c] = v
    return list(grouped.values())


def _eliminate(rows: list[dict], is_unit, inverse, p: int | None = None) -> tuple[int, list[dict]]:
    """Pivot on unit entries until no row holds one; return (pivots, rows left).

    Each pivot clears its column from the other rows that hold it, found
    through a column -> rows index, and then drops its own row: column
    operations on the pivot would clear the rest of that row without
    touching any other row.  So the rows left are the matrix with every
    pivot row and column deleted.  Over a field every nonzero entry is a
    unit and no row is left.  Over Z only +-1 are units, every step is
    unimodular, and the Smith form is (1,...,1) + the Smith form of the
    rows left.  Entries are reduced mod ``p`` when it is given.  Rows
    are visited sparsest first, and each pivot is taken in the sparsest
    column its row offers, to keep fill-in down.
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
            units = [c for c, v in row.items() if is_unit(v)]
            if not units:
                waiting.append(i)
                continue
            pc = min(units, key=lambda c: (len(where[c]), c))
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


def _snf_dense(dense: list[list[int]], n: int) -> tuple[int, ...]:
    """Invariant factors by unimodular row/column operations.

    ``n`` is the column count (explicit so zero-row matrices keep their
    shape).  Pivots are chosen by minimal absolute value to keep
    coefficient growth down.
    """
    D = [row[:] for row in dense]
    m = len(D)

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]

    def row_addmul(src, dst, q):
        Dsrc, Ddst = D[src], D[dst]
        for k in range(n):
            Ddst[k] += q * Dsrc[k]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]

    def col_addmul(src, dst, q):
        for row in D:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        # locate a minimal-absolute-value pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            Di = D[i]
            for j in range(t, n):
                v = Di[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])

        while True:
            # Euclidean sweeps on column t and row t
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, m):
                    if D[i][t]:
                        q = D[i][t] // D[t][t]
                        row_addmul(t, i, -q)
                        if D[i][t]:
                            row_swap(t, i)
                            dirty = True
                for j in range(t + 1, n):
                    if D[t][j]:
                        q = D[t][j] // D[t][t]
                        col_addmul(t, j, -q)
                        if D[t][j]:
                            col_swap(t, j)
                            dirty = True
            # enforce divisibility of the trailing block by the pivot
            pivot_val = D[t][t]
            bad = None
            for i in range(t + 1, m):
                Di = D[i]
                for j in range(t + 1, n):
                    if Di[j] % pivot_val:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_addmul(bad, t, 1)
        t += 1

    return tuple(abs(D[i][i]) for i in range(t))


def _unit_core(M: ExactMatrix) -> tuple[int, list[dict[int, int]]]:
    """Pivot on the +-1 entries of ``M`` over Z; return (pivots, residual core).

    The pivots form a block A11 with det A11 = +-1, and every step is
    unimodular, so the core rows are the Schur complement
    A22 - A21 A11^-1 A12: integer entries, each a minor of ``M`` up to
    sign, and rank M = pivots + rank(core) over any field.
    """
    # +-1 is its own inverse, so ``int`` serves as the inverse map
    return _eliminate(_rows(M, int), lambda v: v == 1 or v == -1, int)


def _memoized(M: ExactMatrix, key, compute, *args):
    """``compute(*args)``, kept in the memo of ``M`` under ``key`` if it has one.

    Every value is a function of the block alone, so two threads that fill
    the same key at once store equal values.
    """
    memo = M._memo
    if memo is None:
        return compute(*args)
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


def _core(M: ExactMatrix) -> tuple[int, list[dict[int, int]]]:
    """``_unit_core(M)``, shared by the Smith form and the rank over Q of a
    block; both only read the core rows."""
    return _memoized(M, "core", _unit_core, M)


def _smith_factors(M: ExactMatrix) -> tuple[int, ...]:
    units, core = _core(M)
    cols = sorted({c for row in core for c in row})
    return (1,) * units + _snf_dense([[row.get(c, 0) for c in cols] for row in core], len(cols))


def smith_normal_form(M: ExactMatrix | list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors d1 | d2 | ... | dr and the rank over Q.

    Unit pivots are eliminated sparsely; only the residual core, where
    no entry is +-1, goes to the dense Smith form.
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
    Only the core's entries become ``Fraction``s, and the core never goes
    to ``_snf_dense``, whose coefficients grow without bound.
    """
    return _memoized(M, "Q", _core_rank_fractions, M)


def _core_rank_fractions(M: ExactMatrix) -> int:
    units, core = _core(M)
    fractions = [{c: Fraction(v) for c, v in row.items()} for row in core]
    return units + _eliminate(fractions, bool, lambda v: 1 / v)[0]


def _rank_mod_p(M: ExactMatrix, p: int) -> int:
    return _eliminate(_rows(M, lambda v: v % p), bool, lambda v: pow(v, -1, p), p)[0]


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
    incoming differential are reported.  The parity blocks come from
    ``C.parity_split`` and keep their reductions, so a sweep over every
    position eliminates each block once per base field.
    """
    kind, p = parse_base(base)
    out_m = C.outgoing(position)
    in_m = C.incoming(position)
    dd = out_m @ in_m
    if not dd.is_zero():
        raise ArithmeticError(
            f"not a complex at position {position}: d∘d has {dd.nnz} nonzero entries"
        )
    out_blocks = C.parity_split(position)
    in_blocks = C.parity_split(position - 1)

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
