"""Supermatrices over Grassmann coefficient rings and the Berezin determinant.

The coefficient ring is Q[t1..tg] with anticommuting generators t_i and
exact rational scalars (integers embed).  An element keeps its terms as a
dict from bitmask (bit i - 1 stands for t_i) to integer numerator, over
one positive denominator that is coprime to the numerators taken
together, so equal elements have equal fields.  A product signs each
pair of terms with the prefix parity P(b) of the right mask, memoized
per mask in a bounded cache: no table grows with the number of
generators.

The even elements form a commutative local ring whose units are the
elements with a nonzero body, so determinants of even matrices come
from one elimination that pivots only on such entries.  An even
supermatrix in block form (X Y; Z T) is invertible exactly when the
bodies of X and T are invertible, and then

    ber(M) = det(X - Y T^-1 Z) * det(T)^-1
           = det(X) * det(T - Z X^-1 Y)^-1

Each Schur complement is what the same elimination leaves in the
bottom-right block once it has cleared the columns of X (or, on the
block-rotated rows, of T), and it yields det(X) (or det(T)) on the way;
no block inverse is formed.  Both closed forms are evaluated and
compared as a built-in self check.

A supermatrix keeps its (p+q) x (p+q) rows in record order; the blocks
X, Y, Z and T are views that slice them.  Input is checked where it
enters: ``GrassmannElement.make`` (``int`` and ``Fraction`` coefficients
only) and the one checked constructor that ``SuperMatrix.from_blocks``
and ``SuperMatrix.from_record`` end in.  Results of the arithmetic are
built without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm


@lru_cache(maxsize=4096)
def _prefix_parity(mask: int) -> int:
    """Bit i is set when an odd number of the bits of ``mask`` lie below i.

    For disjoint masks a and b, t_a * t_b = (-1)^popcount(a & P(b)) t_(a|b):
    sorting the product moves each generator of b left across the
    generators of a above it.  The result has infinitely many high bits
    (a negative int) when popcount(mask) is odd; only ``a & P(b)`` is used.
    Each mask is computed once per process while it stays among the 4096
    most recently used; no table over all 2^gens masks is built.
    """
    prefix = 0
    while mask:
        low = mask & -mask
        prefix ^= -(low << 1)  # every bit above ``low``
        mask ^= low
    return prefix


def _theta_mask(thetas: tuple, gens: int) -> int:
    """The mask of the theta indices ``thetas``, checked in the same pass.

    A non-integer raises ``TypeError`` at once.  An index outside
    1..gens raises ``ValueError`` ahead of a repeat or a decrease.
    """
    mask = prev = 0
    out_of_range = unordered = False
    for t in map(_integer, thetas):
        if not 1 <= t <= gens:
            out_of_range = True
        elif not out_of_range:
            unordered |= t <= prev
            mask |= 1 << (t - 1)
        prev = t
    if out_of_range:
        raise ValueError(f"theta index out of range in {thetas}")
    if unordered:
        raise ValueError(f"theta indices must be strictly increasing: {thetas}")
    return mask


def _thetas(mask: int) -> tuple[int, ...]:
    """The theta indices of ``mask``, increasing: one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class GrassmannElement:
    """Immutable element of the Grassmann algebra on ``gens`` anticommuting generators.

    The coefficient of t_a is ``_num[a] / _den``; the body is the
    coefficient of the empty mask 0.  ``terms`` gives the sorted
    (theta index tuple, Fraction) view.
    """

    __slots__ = ("gens", "_num", "_den")

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("GrassmannElement is immutable")

    @classmethod
    def make(cls, gens: int, terms: dict[tuple[int, ...], Fraction | int]) -> "GrassmannElement":
        if gens < 0:
            raise ValueError(f"negative Grassmann generator count: {gens}")
        clean: dict[int, Fraction] = {}
        for thetas, coeff in terms.items():
            mask = _theta_mask(tuple(thetas), gens)
            c = _exact(coeff)
            if c:
                clean[mask] = clean[mask] + c if mask in clean else c
        return _from_fractions(gens, clean)

    @classmethod
    def scalar(cls, gens: int, value: Fraction | int) -> "GrassmannElement":
        return cls.make(gens, {(): value})

    @classmethod
    def zero(cls, gens: int) -> "GrassmannElement":
        return _element(gens, {}, 1)

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        return tuple(self._sorted_terms(False))

    def _sorted_terms(self, by_size: bool) -> list[tuple[tuple[int, ...], Fraction]]:
        """(theta tuple, Fraction) per term, sorted by theta tuple, or by
        (size, theta tuple) when ``by_size``: one sort of keys taken from
        the masks, then one Fraction per term."""
        den = self._den
        keyed = sorted([(m.bit_count() if by_size else 0, _thetas(m), c) for m, c in self._num.items()])
        return [(thetas, Fraction(c, den)) for _, thetas, c in keyed]

    @property
    def body(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    def parity(self) -> int | None:
        """0 or 1 for homogeneous elements, None for mixed ones."""
        parities = {m.bit_count() & 1 for m in self._num}
        if len(parities) > 1:
            return None
        return parities.pop() if parities else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.gens == other.gens and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self.gens, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"GrassmannElement(gens={self.gens}, terms={self.terms!r})"

    def _operand(self, other) -> "GrassmannElement":
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(self.gens, other)
        if self.gens != other.gens:
            raise ValueError("mismatched Grassmann generator counts")
        return other

    def __add__(self, other) -> "GrassmannElement":
        return _add(self, self._operand(other), 1)

    __radd__ = __add__

    def __sub__(self, other) -> "GrassmannElement":
        return _add(self, self._operand(other), -1)

    def __rsub__(self, other) -> "GrassmannElement":
        return _add(self._operand(other), self, -1)

    def __neg__(self) -> "GrassmannElement":
        return _element(self.gens, {m: -c for m, c in self._num.items()}, self._den)

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, GrassmannElement):
            if self.gens != other.gens:
                raise ValueError("mismatched Grassmann generator counts")
            return _dot(self.gens, ((self, other),))
        other = _exact(other)
        return _scaled(self, other.numerator, other.denominator)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for thetas, coeff in self._sorted_terms(True):
            mono = "*".join(f"t{i}" for i in thetas)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts)

    def to_record(self) -> list[dict]:
        return [{"coeff": str(c), "thetas": list(t)} for t, c in self.terms]


def _exact(value) -> Fraction:
    """``value`` as a Fraction: only ``int`` and ``Fraction`` themselves are coefficients."""
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"Grassmann coefficients must be int or Fraction, got {value!r}")


# Internal constructors and arithmetic: operands share ``gens`` and are
# already in normal form, so nothing is re-checked.

_SET = object.__setattr__


def _element(gens: int, num: dict[int, int], den: int) -> GrassmannElement:
    e = object.__new__(GrassmannElement)
    _SET(e, "gens", gens)
    _SET(e, "_num", num)
    _SET(e, "_den", den)
    return e


def _reduced(gens: int, raw: dict[int, int], den: int) -> GrassmannElement:
    """Normal form of ``raw / den`` for a positive ``den``."""
    num = {m: c for m, c in raw.items() if c}
    if not num or den == 1:  # gcd(1, ...) = 1: integer elements are already reduced
        return _element(gens, num, 1)
    g = gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {m: c // g for m, c in num.items()}
    return _element(gens, num, den)


def _from_fractions(gens: int, fracs: dict[int, Fraction]) -> GrassmannElement:
    den = lcm(*(c.denominator for c in fracs.values()))
    return _reduced(gens, {m: c.numerator * (den // c.denominator) for m, c in fracs.items()}, den)


def _scaled(x: GrassmannElement, num: int, den: int) -> GrassmannElement:
    """x * num / den for a nonzero ``den``."""
    if den < 0:
        num, den = -num, -den
    return _reduced(x.gens, {m: c * num for m, c in x._num.items()}, x._den * den)


def _add(x: GrassmannElement, y: GrassmannElement, sign: int) -> GrassmannElement:
    """x + sign * y."""
    den = lcm(x._den, y._den)
    sx, sy = den // x._den, sign * (den // y._den)
    out = {m: c * sx for m, c in x._num.items()}
    for m, c in y._num.items():
        out[m] = out.get(m, 0) + c * sy
    return _reduced(x.gens, out, den)


def _dot(gens: int, pairs, start: GrassmannElement | None = None) -> GrassmannElement:
    """``start`` (default 0) plus the sum of x * y over ``pairs``, normalized once."""
    if start is None:
        out, den = {}, 1
    else:
        out, den = dict(start._num), start._den
    get = out.get
    for x, y in pairs:
        if not x._num or not y._num:
            continue
        d = x._den * y._den
        common = lcm(den, d)
        if common != den:
            s = common // den
            for m in out:
                out[m] *= s
            den = common
        s = common // d
        right = [(b, _prefix_parity(b), cb) for b, cb in y._num.items()]
        for a, ca in x._num.items():
            ca *= s
            for b, pb, cb in right:
                if a & b:
                    continue
                m = a | b
                if (a & pb).bit_count() & 1:
                    out[m] = get(m, 0) - ca * cb
                else:
                    out[m] = get(m, 0) + ca * cb
    return _reduced(gens, out, den)


def invert_unit(u: GrassmannElement) -> GrassmannElement:
    """Exact inverse of an even unit."""
    if u.parity() != 0:
        raise ValueError("only even elements can be inverted here")
    if not u._num.get(0):
        raise ZeroDivisionError("zero body: not a unit")
    return _inverse_unit(u)


def _inverse_unit(u: GrassmannElement) -> GrassmannElement:
    """Inverse of an even element with a nonzero body: a finite geometric series.

    With u = (b + n) / D (n nilpotent, even), the inverse is
    D/b * sum_k (-n/b)^k; the sum stops at k = gens // 2 since every
    even nilpotent term carries at least two generators.
    """
    gens, num, den = u.gens, u._num, u._den
    body = num[0]
    sign = 1 if body > 0 else -1
    ratio = _reduced(gens, {m: -sign * c for m, c in num.items() if m}, sign * body)
    total = power = ratio
    for _ in range(gens // 2 - 1):
        power = _dot(gens, ((power, ratio),))
        if not power._num:
            break
        total = _add(total, power, 1)
    total = _add(total, _element(gens, {0: 1}, 1), 1)
    return _scaled(total, den, body)


Matrix = tuple[tuple[GrassmannElement, ...], ...]


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(r) for r in rows)


def _eliminate(A: list[list[GrassmannElement]], n: int) -> tuple[GrassmannElement, int]:
    """Unit-pivot elimination of the first ``n`` columns of the rows ``A``, in place.

    Column k pivots on the first row among k..n-1 whose entry has a
    nonzero body (a unit of the even subring) and clears that column
    from every row below the pivot, the rows past ``n`` included.  The
    multiplier stays on the left of the pivot row, so for
    A = [[D, C], [B, E]] with an n x n block D and odd B, C the rows
    past ``n`` end as [0 | E - B D^-1 C].  Returns (d, k): k is the
    first column with no unit pivot (n when every column has one) and
    det(D) = d * det(rows k..n-1, columns k..n-1).
    """
    gens = A[0][0].gens
    sign = 1
    pivots = []
    for k in range(n):
        r = next((r for r in range(k, n) if A[r][k]._num.get(0)), None)
        if r is None:
            break
        if r != k:
            A[k], A[r] = A[r], A[k]
            sign = -sign
        row = A[k]
        pivots.append(row[k])
        if k + 1 < len(A):
            inv = _inverse_unit(row[k])
        tail = [(j, e) for j, e in enumerate(row[k + 1 :], k + 1) if e._num]
        for r in range(k + 1, len(A)):
            lead = A[r][k]
            if not lead._num:
                continue
            factor = -_dot(gens, ((lead, inv),))
            new = A[r][:]
            new[k] = _element(gens, {}, 1)
            for j, e in tail:
                new[j] = _dot(gens, ((factor, e),), new[j])
            A[r] = new
    det = _element(gens, {0: sign}, 1)
    for p in pivots:
        det = _dot(gens, ((det, p),))
    return det, len(pivots)


def _det(A: list[list[GrassmannElement]]) -> GrassmannElement:
    n = len(A)
    det, k = _eliminate(A, n)
    if k == n:
        return det
    # No entry of column k from row k on has a body: expand the trailing
    # block along that column, which needs no division.  Each term of a
    # body-free even entry has at least two generators, so a block with
    # no body anywhere has determinant 0 once 2 * (n - k) > gens.
    gens = det.gens
    block = [row[k:] for row in A[k:]]
    if 2 * (n - k) > gens and not any(e._num.get(0) for row in block for e in row):
        return _element(gens, {}, 1)
    terms = []
    for i, row in enumerate(block):
        if row[0]._num:
            rest = [r[1:] for j, r in enumerate(block) if j != i]
            minor = _det(rest) if rest else _element(gens, {0: 1}, 1)
            terms.append((row[0] if i % 2 == 0 else -row[0], minor))
    return _dot(gens, ((det, _dot(gens, terms)),))


def det_even(M) -> GrassmannElement:
    """Determinant of a square matrix with even (hence commuting) entries."""
    M = _as_matrix(M)
    n = len(M)
    if n == 0:
        raise ValueError("det_even of an empty matrix is ambiguous; handle 0x0 blocks upstream")
    gens = M[0][0].gens
    for row in M:
        if len(row) != n:
            raise ValueError("det_even requires a square matrix")
        for e in row:
            if e.gens != gens:
                raise ValueError("mismatched Grassmann generator counts")
            if e.parity() != 0:
                raise ValueError("odd entry present in det_even")
    return _det([list(row) for row in M])


def _matmul(A: Matrix, B: Matrix, gens: int) -> Matrix:
    cols = list(zip(*B))
    return tuple(tuple(_dot(gens, zip(row, col)) for col in cols) for row in A)


_SINGULAR = "supermatrix is not invertible (a diagonal block body is singular)"


def _schur(rows: Matrix, n: int) -> tuple[GrassmannElement, Matrix]:
    """det(D) and the Schur complement E - B D^-1 C of the rows
    [[D, C], [B, E]], for an n x n even block D.  Raises ValueError when
    the body of D is singular: the elimination then finds no unit pivot
    in some column of D."""
    A = [list(r) for r in rows]
    det, k = _eliminate(A, n)
    if k < n:
        raise ValueError(_SINGULAR)
    return det, tuple(tuple(r[n:]) for r in A[n:])


@dataclass(frozen=True)
class SuperMatrix:
    """Even supermatrix (X Y; Z T) over a Grassmann coefficient ring.

    ``rows`` is the (p+q) x (p+q) matrix in record order.  X (p x p) and
    T (q x q) have even entries, Y (p x q) and Z (q x p) odd ones; the
    four blocks are read-only views that slice ``rows``.
    """

    p: int
    q: int
    gens: int
    rows: Matrix

    X = property(lambda self: tuple(r[: self.p] for r in self.rows[: self.p]))
    Y = property(lambda self: tuple(r[self.p :] for r in self.rows[: self.p]))
    Z = property(lambda self: tuple(r[: self.p] for r in self.rows[self.p :]))
    T = property(lambda self: tuple(r[self.p :] for r in self.rows[self.p :]))

    @classmethod
    def _checked(cls, p: int, q: int, gens: int, rows: Matrix) -> "SuperMatrix":
        """The supermatrix of the (p+q)-square ``rows``, its entries checked
        block by block (X, Y, Z, T, each row by row): the first bad entry
        of the earliest block is the one reported."""
        M = cls(p, q, gens, rows)
        for block, want in ((M.X, 0), (M.Y, 1), (M.Z, 1), (M.T, 0)):
            for row in block:
                for e in row:
                    if e.gens != gens:
                        raise ValueError("mismatched Grassmann generator counts")
                    par = e.parity()
                    if par is not None and par != want and not e.is_zero():
                        raise ValueError(
                            f"entry parity violates even supermatrix structure: {e}"
                        )
                    if par is None:
                        raise ValueError(f"inhomogeneous entry: {e}")
        return M

    @classmethod
    def from_blocks(cls, p: int, q: int, gens: int, X, Y, Z, T) -> "SuperMatrix":
        X, Y, Z, T = _as_matrix(X), _as_matrix(Y), _as_matrix(Z), _as_matrix(T)
        for block, rows, cols in ((X, p, p), (Y, p, q), (Z, q, p), (T, q, q)):
            if len(block) != rows or any(len(r) != cols for r in block):
                raise ValueError("block shape mismatch")
        rows = tuple(x + y for x, y in zip(X, Y)) + tuple(z + t for z, t in zip(Z, T))
        return cls._checked(p, q, gens, rows)

    @classmethod
    def identity(cls, p: int, q: int, gens: int) -> "SuperMatrix":
        one = GrassmannElement.scalar(gens, 1)
        zero = GrassmannElement.zero(gens)
        n = p + q
        eye = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls(p, q, gens, eye)

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if (self.p, self.q, self.gens) != (other.p, other.q, other.gens):
            raise ValueError("supermatrix shape mismatch")
        # a product of even supermatrices is even: its entries need no check
        return SuperMatrix(self.p, self.q, self.gens, _matmul(self.rows, other.rows, self.gens))

    def to_record(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "grassmann_gens": self.gens,
            "entries": [e.to_record() for row in self.rows for e in row],
        }

    @classmethod
    def from_record(cls, record: dict) -> "SuperMatrix":
        """Inverse of ``to_record``.  A missing key or a field of the wrong
        type (sizes and theta indices must be JSON integers, coefficients
        rational strings) raises ``ValueError`` naming it."""
        header, k = [], -1
        try:
            for field in ("p", "q", "grassmann_gens"):
                size = _integer(record[field])
                if size < 0:
                    raise TypeError(f"expected a nonnegative integer, got {size}")
                header.append(size)
            p, q, gens = header
            field = "entries"
            flat = record[field]
            n = p + q
            if len(flat) != n * n:
                raise ValueError(f"expected {n * n} entries, got {len(flat)}")
            elems = []
            for k, entry in enumerate(flat):
                fracs: dict[int, Fraction] = {}
                bad = None  # a bad index is reported after the entry's coefficients
                for t in entry:
                    try:
                        mask = _theta_mask(tuple(t["thetas"]), gens)
                    except ValueError as e:
                        bad = bad or e
                    c = _coeff(t["coeff"])
                    if c and bad is None:
                        fracs[mask] = fracs[mask] + c if mask in fracs else c
                if bad is not None:
                    raise bad
                elems.append(_from_fractions(gens, fracs))
        except KeyError as e:
            where = f" in a term of entries[{k}]" if k >= 0 else ""
            raise ValueError(f"supermatrix record has no {e.args[0]!r} key{where}") from e
        except TypeError as e:
            if not isinstance(record, dict):
                raise ValueError(
                    f"supermatrix record must be a JSON object, got {type(record).__name__}"
                ) from e
            where = f"entries[{k}]" if k >= 0 else field
            raise ValueError(f"supermatrix record field {where!r} is malformed: {e}") from e
        return cls._checked(p, q, gens, tuple(tuple(elems[i * n : (i + 1) * n]) for i in range(n)))


def _integer(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# Records repeat a few small coefficients; a bounded cache parses each once.
_parse_coeff = lru_cache(maxsize=1024)(Fraction)


def _coeff(value) -> Fraction:
    if type(value) is not str:
        raise TypeError(f"expected a rational string, got {type(value).__name__}")
    try:
        return _parse_coeff(value)
    except (ValueError, ZeroDivisionError):
        shown = value if len(value) <= 24 else value[:24] + "..."
        raise TypeError(f"expected a rational string, got {shown!r}") from None


def is_invertible(M: SuperMatrix) -> bool:
    """True iff the bodies of both diagonal blocks are invertible: the
    unit-pivot elimination of each body matrix pivots in every column."""
    for block, n in ((M.X, M.p), (M.T, M.q)):
        if n == 0:
            continue
        bodies = [[_reduced(e.gens, {0: e._num.get(0, 0)}, e._den) for e in row] for row in block]
        if _eliminate(bodies, n)[1] < n:
            return False
    return True


def ber(M: SuperMatrix) -> GrassmannElement:
    """Berezin determinant of an invertible even supermatrix.

    Both closed forms are evaluated; a mismatch would indicate an
    internal arithmetic error and raises.  Block elimination of the
    columns of X gives det(X) and T - Z X^-1 Y; on the block-rotated
    rows (T Z; Y X) it gives det(T) and X - Y T^-1 Z.  Each elimination
    also tells whether the body of its diagonal block is invertible; with
    one block empty, the other's elimination alone gives both.
    """
    p, rows = M.p, M.rows
    if not (p and M.q):
        det = _schur(rows, len(rows))[0] if rows else GrassmannElement.scalar(M.gens, 1)
        return invert_unit(det) if M.q else det

    det_x, schur_t = _schur(rows, p)
    det_t, schur_x = _schur([r[p:] + r[:p] for r in rows[p:] + rows[:p]], M.q)
    first = det_even(schur_x) * invert_unit(det_t)
    second = det_x * invert_unit(det_even(schur_t))
    if first != second:
        raise ArithmeticError("internal error: the two Berezin determinant forms disagree")
    return first


def random_grassmann(rng, gens: int, parity: int, bound: int = 3) -> GrassmannElement:
    """Random homogeneous element with small rational coefficients: each
    monomial of the parity is kept with chance 1/2."""
    terms: dict[int, Fraction] = {}
    for size in range(parity, gens + 1, 2):
        for subset in combinations(range(gens), size):
            if rng.random() < 0.5:
                num = rng.randint(-bound, bound)
                if num:
                    terms[sum(1 << i for i in subset)] = Fraction(num, rng.randint(1, 2))
    return _from_fractions(gens, terms)


def random_invertible_supermatrix(rng, p: int, q: int, gens: int) -> SuperMatrix:
    """Seeded random even supermatrix with invertible diagonal-block bodies."""
    while True:
        def block(rows, cols, parity):
            return [
                [random_grassmann(rng, gens, parity) for _ in range(cols)]
                for _ in range(rows)
            ]

        X = block(p, p, 0)
        T = block(q, q, 0)
        for i in range(p):
            X[i][i] = X[i][i] + GrassmannElement.scalar(gens, rng.choice([1, -1, 2]))
        for i in range(q):
            T[i][i] = T[i][i] + GrassmannElement.scalar(gens, rng.choice([1, -1, 2]))
        M = SuperMatrix.from_blocks(p, q, gens, X, block(p, q, 1), block(q, p, 1), T)
        if is_invertible(M):
            return M

