"""Finite exact-integer matrix complexes.

Fixed-weight slices of the contraction (Koszul) complex, the exterior
derivative (De Rham) complex, their B-linear dual (Berezinian complex),
and the classical specialization of the contraction complex along a
coefficient vector.  A complex stores, per position, a monomial basis
and the integer matrix of the differential leaving that position; the
differential always maps position ``pos`` to ``pos + 1``.

Each kind places one piece Lambda^p (x) S^q at each position (``_PIECE``)
and assembles each differential from one stencil and one generator rule,
factor by factor: every basis is the product of its wedge parts and its
coefficient parts, the stencil acts on one factor and the generator rule
on the other, each tabulated once per matrix (``assemble``).
A stencil depends only on the generators, the degree and the operator,
so each is built once per process and kept in a bounded cache; so is
each basis (``skos.multilinear.basis_wedge_sym``), which complexes of
every kind share.
All structure constants are integers regardless of the eventual base
ring; base change happens in :mod:`skos.exact_linalg`.  Every
differential is an even map (a record that is not is refused).  Built
complexes are never changed after construction and are safe to share
between threads; each differential keeps its own eliminations
(``skos.exact_linalg.rank``), filled on first use with values that
depend on the matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator

import skos.multilinear as multilinear
from skos.exact_linalg import ExactMatrix
from skos.multilinear import FreeBasis, iter_sym_monomials, iter_wedge_monomials
from skos.super_poly import (
    DTHETA, DX, THETA, X, GeneratorSet, SuperMonomial, SuperPolynomial, contract_euler, exterior_d,
)


class WindowError(ValueError):
    """A homology request needs a neighbor outside the materialized window."""


# kind -> (position, weight) -> (wedge degree, symmetric degree) of the piece there
_PIECE = {
    "koszul": lambda pos, n: (-pos, n + pos),
    "derham": lambda pos, n: (pos, n - pos),
    "berezinian": lambda pos, n: (pos, n + pos),
    "specialized": lambda pos, n: (-pos, 0),
}


# kind -> (a, b, weight) -> (least, greatest) position outside which the full
# complex over (a|b) vanishes, None where it is unbounded: no degree is negative,
# the wedge degree is at most a when b = 0, the symmetric degree at most b when a = 0
_SUPPORT = {
    "koszul": lambda a, b, n: (-(min(n, a) if b == 0 else n), 0),
    "derham": lambda a, b, n: (0, min(n, a) if b == 0 else n),
    "berezinian": lambda a, b, n: (0, min([a] * (b == 0) + [max(b - n, 0)] * (a == 0), default=None)),
    "specialized": lambda a, b, n: (-a if b == 0 else None, 0),
}


def _direction(kind: str) -> int:
    """+1 when the differential raises the wedge degree, -1 when it lowers it."""
    return _PIECE[kind](1, 0)[0] - _PIECE[kind](0, 0)[0]


def _basis(kind: str, gens: GeneratorSet, n: int | None, pos: int) -> FreeBasis:
    p, q = _PIECE[kind](pos, n)
    if p < 0 or q < 0:
        return FreeBasis(gens)
    # read from skos.multilinear per call: perfbench's tracer rebinds it there, not in this module
    return multilinear.basis_wedge_sym(gens.even, gens.odd, p, q)


def _is_int(value, least=None) -> bool:
    return type(value) is int and (least is None or value >= least)


def _ints(value, length=None, least=None, none=False) -> bool:
    """A list of ``length`` integers >= ``least`` (or nulls, if ``none``)."""
    return type(value) is list and length in (None, len(value)) and all(
        none and x is None or _is_int(x, least) for x in value)


# A record's basis is counted exactly up to this bound, far past any list
# it can hold, so an error names the size the basis should have.  Past it
# the count stops: no record makes it form a huge binomial, and no count
# takes more than a few milliseconds.
_COUNT_BOUND = 2**256


def _piece_size(p: int, q: int, a: int, b: int) -> int:
    """``len(basis_wedge_sym(a, b, p, q))``, or ``_COUNT_BOUND + 1`` past the bound.

    The sums of ``wedge_rank`` and ``sym_rank``: Lambda^d over (m|s) has
    the sum over i of C(m, d - i) C(s + i - 1, i) entries, and S^q over
    (a|b) is Lambda^q over (b|a).  Each binomial is built one factor at
    a time and each sum one term at a time, and both stop past the bound.
    """
    over = _COUNT_BOUND + 1

    def comb(n, k):  # C(n, 0) = 1 for every n, as ``multilinear.binom``
        if k < 0 or n < k:
            return int(k == 0)
        c = 1
        for i in range(min(k, n - k)):
            c = c * (n - i) // (i + 1)
            if c >= over:
                return over
        return c

    def wedge(d, m, s):  # each term from the first nonzero to the last is at least 1
        total = 0
        for i in range(max(d - m, 0), (d if s else 0) + 1):
            total += comb(m, d - i) * comb(s + i - 1, i)
            if total >= over:
                return over
        return total

    return min(wedge(p, a, b) * wedge(q, b, a), over)


@dataclass(frozen=True, eq=False)
class GradedComplex:
    """A finite window of free-module bases and integer differentials.

    ``diff_at[pos]`` is the matrix of the differential from ``pos`` to
    ``pos + 1`` (rows = target basis, columns = source basis).  The
    support bounds record where the full complex provably vanishes
    (``None`` means unbounded on that side, see ``_SUPPORT``), so edge
    positions can still report homology.
    """

    kind: str
    gens: GeneratorSet
    weight: int | None
    direction: int
    positions: tuple[int, ...]
    basis_at: dict[int, FreeBasis]
    diff_at: dict[int, ExactMatrix]
    support_min: int | None
    support_max: int | None
    omega: tuple[int, ...] | None = None

    def dim(self, pos: int) -> int:
        return len(self.basis_at.get(pos, ()))

    def outgoing(self, pos: int) -> ExactMatrix:
        """Matrix of the differential leaving ``pos``."""
        if pos not in self.basis_at:
            raise WindowError(f"position {pos} is not materialized")
        if pos + 1 in self.basis_at:
            return self.diff_at[pos]
        if self.support_max is not None and pos + 1 > self.support_max:
            return ExactMatrix.zeros(0, self.dim(pos))
        raise WindowError(f"position {pos + 1} is outside the materialized window")

    def incoming(self, pos: int) -> ExactMatrix:
        """Matrix of the differential arriving at ``pos``."""
        if pos not in self.basis_at:
            raise WindowError(f"position {pos} is not materialized")
        if pos - 1 in self.basis_at:
            return self.diff_at[pos - 1]
        if self.support_min is not None and pos - 1 < self.support_min:
            return ExactMatrix.zeros(self.dim(pos), 0)
        raise WindowError(f"position {pos - 1} is outside the materialized window")

    def to_record(self) -> dict:
        return {
            "format": "skos.graded-complex/1",
            "kind": self.kind,
            "rank": [self.gens.even, self.gens.odd],
            "weight": self.weight,
            "direction": self.direction,
            "omega": list(self.omega) if self.omega is not None else None,
            "support": [self.support_min, self.support_max],
            "positions": list(self.positions),
            "bases": [list(self.basis_at[p].labels) for p in self.positions],
            "differentials": [
                {"from": p, "rows": M.rows, "cols": M.cols, "entries": [list(t) for t in M.triplets()]}
                for p, M in sorted(self.diff_at.items())
            ],
        }

    @classmethod
    def from_record(cls, record: dict) -> "GradedComplex":
        """Inverse of ``to_record``.  Each basis must be the enumerated basis
        of the record's kind, string for string and in order, and each
        matrix must list its nonzero entries once, sorted, each joining a
        row and a column of one parity, and the support must be the one
        of the record's kind, rank and weight; anything else raises
        ``ValueError`` naming the field or the position."""
        if not isinstance(record, dict):
            raise ValueError(f"complex record must be a JSON object, got {type(record).__name__}")
        if record.get("format") != "skos.graded-complex/1":
            raise ValueError(f"unknown complex format {record.get('format')!r}")

        def get(key, ok, expected):
            if key not in record:
                raise ValueError(f"complex record has no {key!r} key")
            if not ok(record[key]):
                raise ValueError(f"complex record field {key!r} must be {expected}, got {record[key]!r}")
            return record[key]

        kind = get("kind", lambda v: isinstance(v, str) and v in _PIECE, f"one of {sorted(_PIECE)}")
        special, direction = kind == "specialized", _direction(kind)
        a, b = get("rank", lambda v: _ints(v, 2, 0), "two nonnegative integers")
        weight = get("weight", lambda v: v is None if special else _is_int(v),
                     "null" if special else "an integer")
        get("direction", lambda v: _is_int(v) and v == direction, str(direction))
        omega = get("omega", lambda v: _ints(v, a + b) if special else v is None,
                    f"{a + b} integers" if special else "null")
        positions = tuple(get("positions", lambda v: _ints(v) and v[:1] and v == list(range(v[0], v[0] + len(v))),
                              "consecutive integers"))
        bases = get("bases", lambda v: type(v) is list and len(v) == len(positions), f"{len(positions)} bases")
        diffs = get("differentials", lambda v: type(v) is list and len(v) == len(positions) - 1,
                    f"{len(positions) - 1} matrices")

        gens = GeneratorSet(a, b)
        basis_at = {}
        for pos, strings in zip(positions, bases):
            # counted before it is enumerated, so a short record cannot ask for a huge basis
            size = _piece_size(*_PIECE[kind](pos, weight), a, b)
            if type(strings) is not list or len(strings) != size:
                count = size if size <= _COUNT_BOUND else "more than 2**256"
                raise ValueError(f"complex record basis at position {pos} must have {count} entries")
            basis_at[pos] = _basis(kind, gens, weight, pos)
            if basis_at[pos].labels != tuple(strings):
                raise ValueError(f"complex record basis at position {pos} is not the {kind} basis")
        diff_at = {}
        for pos, d in zip(positions, diffs):
            where = f"complex record differential from position {pos}"
            rows, cols = len(basis_at[pos + 1]), len(basis_at[pos])
            shape = {"from": pos, "rows": rows, "cols": cols}
            if type(d) is not dict or type(d.get("entries")) is not list or any(
                    not _is_int(d.get(k)) or d[k] != v for k, v in shape.items()):
                raise ValueError(f"{where} must have {shape} and a list of entries")
            M = diff_at[pos] = ExactMatrix.zeros(rows, cols)
            stored, last, in_order = M._d, (-1, -1), True
            row_parity, col_parity = basis_at[pos + 1].parities, basis_at[pos].parities
            for t in d["entries"]:  # checked here, so stored straight into the matrix
                r, c, v = t if type(t) is list and len(t) == 3 else (None, None, None)
                if not (type(r) is int and type(c) is int and type(v) is int and 0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"{where} has entry {t!r}")
                if row_parity[r] != col_parity[c]:
                    raise ValueError(f"{where} has entry {t!r}, which joins a row and a column of different parity")
                in_order = in_order and v != 0 and (r, c) > last
                last = (r, c)
                stored[last] = v
            if not in_order:
                raise ValueError(f"{where} must list its nonzero entries once, sorted")
        bounds = list(_SUPPORT[kind](a, b, weight))  # homology trusts it at the window's edges
        support = get("support", lambda v: _ints(v, 2, none=True) and v == bounds, f"the {kind} support {bounds}")
        return cls(kind, gens, weight, direction, positions, basis_at, diff_at, *support,
                   tuple(omega) if special else None)


def _complex(kind: str, gens: GeneratorSet, n: int | None, positions: range, support: tuple,
             diff: Callable[[int, FreeBasis, FreeBasis], ExactMatrix], omega: tuple | None = None) -> GradedComplex:
    """The enumerated basis of ``kind`` at each position, and ``diff(pos, source basis, target basis)``."""
    basis_at = {pos: _basis(kind, gens, n, pos) for pos in positions}
    diff_at = {pos: diff(pos, basis_at[pos], basis_at[pos + 1]) for pos in positions[:-1]}
    return GradedComplex(kind, gens, n, _direction(kind), tuple(positions), basis_at, diff_at, *support, omega)


# Bound of each stencil cache.  Building every Koszul, De Rham and
# Berezinian slice with a + b <= 5 and weight <= 5, and then the bott_table
# sweep that ``skos.bott`` sizes its caches by, fills 100 entries of either.
_STENCILS = 256


def _part(pool: dict, first: tuple, second: tuple) -> tuple:
    """The pair ``(first, second)``, the pair and each half taken from
    ``pool`` when an equal one is there: one object per part, however many
    stencil terms name it."""
    pair = (pool.setdefault(first, first), pool.setdefault(second, second))
    return pool.setdefault(pair, pair)


@lru_cache(maxsize=_STENCILS)
def contraction_stencil(gens: GeneratorSet, degree: int,
                        op: Callable[[SuperPolynomial], SuperPolynomial]) -> dict[tuple, tuple]:
    """Apply ``op`` once to every pure wedge monomial dx_E dt^beta of ``degree``.

    Maps each wedge part ``(dxs, dt_pow)`` to the terms of its image,
    each written as ``coefficient, generator, wedge part`` with the
    weight-1 generator ``(X, i)`` or ``(THETA, j)`` in front of the wedge
    part, laid end to end in one flat tuple (see :func:`_terms`).  ``op``
    must be linear over the coefficient part and trade one wedge generator
    per term for its weight-1 partner, as the Euler contraction does.
    Built once per (gens, degree, op) and shared by every caller, so it
    must not be changed.
    """
    a, b = gens
    pool: dict[tuple, tuple] = {}
    stencil = {}
    for wedge in iter_wedge_monomials(a, b, degree):
        image = op(SuperPolynomial.single(gens, SuperMonomial((0,) * a, (), *wedge), 1))
        terms: list = []
        for tm, c in image.terms.items():
            gen = (THETA, tm.thetas[0]) if tm.thetas else (X, tm.x_pow.index(1))
            terms += int(c), pool.setdefault(gen, gen), _part(pool, tm.dxs, tm.dt_pow)
        stencil[_part(pool, *wedge)] = tuple(terms)
    return stencil


@lru_cache(maxsize=_STENCILS)
def _derivative_stencil(gens: GeneratorSet, degree: int,
                        op: Callable[[SuperPolynomial], SuperPolynomial]) -> dict[tuple, tuple]:
    """Apply ``op`` (``exterior_d``) once to every coefficient monomial x^alpha t_S of ``degree``.

    The mirror of :func:`contraction_stencil`, as d(s*w) = ds*w for a wedge
    part w: maps ``(x_pow, thetas)`` to the terms ``coefficient, (DX, i) or
    (DTHETA, j), coefficient part`` of its image, flat.  Cached and shared
    the same way.
    """
    a, b = gens
    pool: dict[tuple, tuple] = {}
    stencil = {}
    for coef in iter_sym_monomials(a, b, degree):
        image = op(SuperPolynomial.single(gens, SuperMonomial(*coef, (), (0,) * b), 1))
        terms: list = []
        for tm, c in image.terms.items():
            gen = (DX, tm.dxs[0]) if tm.dxs else (DTHETA, tm.dt_pow.index(1) + 1)
            terms += int(c), pool.setdefault(gen, gen), _part(pool, tm.x_pow, tm.thetas)
        stencil[_part(pool, *coef)] = tuple(terms)
    return stencil


def _terms(flat) -> Iterator[tuple]:
    """The ``(coefficient, generator, part)`` triples of a stencil entry.

    Entries are flat, three slots per term: a triple of its own would cost
    more memory than the three slots, in a cache that outlives every build.
    """
    slots = iter(flat)
    return zip(slots, slots, slots)


def assemble(src: FreeBasis, dst: FreeBasis, stencil: dict[tuple, tuple], times) -> ExactMatrix:
    """Matrix of the map sending the column ``s * v`` to the sum of
    ``c * (s*gen) * w`` over the stencil terms ``(c, gen, w)`` of v.

    Both bases are products of a wedge and a coefficient factor
    (:class:`~skos.multilinear.FreeBasis`).  The stencil's generators say
    which factor ``times`` acts on: x_i and t_j multiply the coefficient
    part, and the stencil is keyed on the wedge part (the contraction
    builders); dx_i and dt_j multiply the wedge part, and the stencil is
    keyed on the coefficient part (De Rham).  ``times(s, gen)`` returns
    ``(scalar, s*gen)``, or ``None`` when it vanishes.

    ``times`` runs once per generator and entry of its factor, into a
    table of (scalar, target offset), and each stencil key is looked up
    once per entry of the other factor; a row is then outer * |inner| +
    inner in the target's factors.  Columns run in basis order and each
    column's terms in stencil order, and each entry is written straight
    into the matrix's ``_d`` at its first term, the terms of a repeated
    target summed into it and a zero (a zero product, or a sum that
    cancels) dropped: the entries and their order are those of
    ``ExactMatrix.from_triplets`` on the same terms, without its checks,
    as every row and column is in range and every value an ``int``.
    A term whose target is not in ``dst`` raises ``KeyError``.
    """
    if not src:
        return ExactMatrix.zeros(len(dst), 0)
    for terms in stencil.values():
        if terms:
            on_coefs = terms[1][0] in (X, THETA)  # the first generator's kind
            break
    else:
        return ExactMatrix.zeros(len(dst), len(src))
    inner = len(dst.coefs)
    if on_coefs:
        keys, acted, key_at, acted_at = src.wedges, src.coefs, dst.wedges, dst.coefs
        key_stride, acted_stride = inner, 1
    else:
        keys, acted, key_at, acted_at = src.coefs, src.wedges, dst.coefs, dst.wedges
        key_stride, acted_stride = 1, inner
    key_at = {k: i * key_stride for i, k in enumerate(key_at)}
    acted_at = {s: i * acted_stride for i, s in enumerate(acted_at)}
    tables: dict[tuple, list] = {}  # gen -> for each s in ``acted``, (scalar, offset) of s*gen or None
    key_terms = []  # for each key, its terms as (coefficient, table of gen, offset of the part)
    for key in keys:
        terms = []
        for c, gen, part in _terms(stencil.get(key, ())):
            table = tables.get(gen)
            if table is None:
                table = tables[gen] = []
                for s in acted:
                    hit = times(s, gen)
                    table.append(hit and (hit[0], acted_at[hit[1]]))
            if part in key_at:
                terms.append((c, table, key_at[part]))
            elif any(table):  # every entry of ``acted`` meets this key, so the term lands outside ``dst``
                raise KeyError(part)
        key_terms.append(terms)
    if on_coefs:  # the key is the outer factor
        columns = product(key_terms, range(len(acted)))
    else:
        columns = ((terms, a) for a, terms in product(range(len(acted)), key_terms))
    M = ExactMatrix(len(dst), len(src))
    d = M._d
    zeros = []  # entries that held a zero at some term: a zero product or a sum that cancelled
    for col, (terms, a) in enumerate(columns):
        for c, table, row in terms:
            hit = table[a]
            if hit is not None:
                rc, v = (row + hit[1], col), c * hit[0]
                if rc in d:
                    v += d[rc]
                d[rc] = v
                if not v:
                    zeros.append(rc)
    for rc in zeros:  # dropped only now, so a later term of the same entry keeps its place
        if d.get(rc) == 0:
            del d[rc]
    return M


def times_theta(coef: tuple, j: int) -> tuple[int, tuple] | None:
    """Right product of the coefficient part (x part, t_S) with t_j.

    The sign is (-1)^#{s in S : s > j}; the product vanishes when j is
    in S.
    """
    x, thetas = coef
    if j in thetas:
        return None
    k = sum(1 for s in thetas if s < j)
    return (-1 if (len(thetas) - k) & 1 else 1), (x, thetas[:k] + (j,) + thetas[k:])


def _polynomial_times(coef, gen):
    """x_i raises an exponent; t_j is inserted with its sign."""
    kind, i = gen
    if kind == THETA:
        return times_theta(coef, i)
    x_pow, thetas = coef
    return 1, (x_pow[:i] + (x_pow[i] + 1,) + x_pow[i + 1 :], thetas)


def _wedge_times(wedge, gen):
    """Left product of dx_i or dt_j with the wedge part dx_E dt^beta: the
    sign is (-1)^#{e in E : e < i} for dx_i, which vanishes for i in E,
    and (-1)^|E| for dt_j."""
    dxs, dt_pow = wedge
    kind, i = gen
    if kind == DTHETA:
        return (-1 if len(dxs) & 1 else 1), (dxs, dt_pow[: i - 1] + (dt_pow[i - 1] + 1,) + dt_pow[i:])
    if i in dxs:
        return None
    k = sum(1 for e in dxs if e < i)
    return (-1 if k & 1 else 1), (dxs[:k] + (i,) + dxs[k:], dt_pow)


def _dual_stencil(stencil: dict[tuple, tuple]) -> dict[tuple, list]:
    """Precomposition with the map of ``stencil``, on the dual wedge basis.

    The dual element phi_v maps to the sum over the wedge monomials u
    whose image holds ``c * w * v`` of ``c * w * phi_u``, with the sign of
    moving w across phi_v folded into ``c``.
    """
    dual: dict[tuple, list] = {}
    for u, terms in stencil.items():
        for c, gen, v in _terms(terms):
            sign = -1 if gen[0] == THETA and sum(v[1]) & 1 else 1
            dual.setdefault(v, []).extend((c * sign, gen, u))
    return dual


def _check_args(a: int, b: int, cap: int, n: int | None = None) -> None:
    if a < 0 or b < 0:
        raise ValueError("rank components must be nonnegative")
    if n is not None and n < 0:
        raise ValueError("weight must be nonnegative")
    if cap < 0:
        raise ValueError("cap must be nonnegative")


def build_koszul(a: int, b: int, n: int, cap: int | None = None) -> GradedComplex:
    """Weight-n slice of the contraction complex of a rank (a|b) module.

    Position -p carries the wedge-degree-p, symmetric-degree-(n-p)
    basis; the differential is the Euler contraction.  For b = 0 the
    slice is finite and ``cap`` is ignored; otherwise positions
    -min(n, cap)..0 are materialized.
    """
    cap = n if cap is None else cap
    _check_args(a, b, cap, n)
    support = _SUPPORT["koszul"](a, b, n)
    lo = support[0] if b == 0 else -min(n, cap)
    gens = GeneratorSet(a, b)
    return _complex("koszul", gens, n, range(lo, 1), support, lambda pos, src, dst: assemble(
        src, dst, contraction_stencil(gens, -pos, contract_euler), _polynomial_times))


def build_derham(a: int, b: int, n: int, cap: int | None = None) -> GradedComplex:
    """Weight-n slice of the exterior-derivative complex, positions 0..top."""
    cap = n if cap is None else cap
    _check_args(a, b, cap, n)
    support = _SUPPORT["derham"](a, b, n)
    top = support[1] if b == 0 else min(n, cap)
    gens = GeneratorSet(a, b)
    return _complex("derham", gens, n, range(0, top + 1), support, lambda pos, src, dst: assemble(
        src, dst, _derivative_stencil(gens, n - pos, exterior_d), _wedge_times))


def build_berezinian(a: int, b: int, n: int, cap: int) -> GradedComplex:
    """Weight-n slice of the dual of the contraction complex.

    Position i carries the dual of the wedge-degree-i piece tensored
    with the symmetric-degree-(n+i) piece; basis entries are written as
    combined monomials whose dx/dt part is to be read as a dual basis
    element.  The slice is unbounded above when a > 0 and b > 0, so
    positions 0..cap are materialized.
    """
    _check_args(a, b, cap)
    support = _SUPPORT["berezinian"](a, b, n)
    top = cap if support[1] is None else min(cap, support[1])
    gens = GeneratorSet(a, b)
    return _complex("berezinian", gens, n, range(0, top + 1), support, lambda pos, src, dst: assemble(
        src, dst, _dual_stencil(contraction_stencil(gens, pos + 1, contract_euler)), _polynomial_times))


def specialize_koszul(a: int, b: int, omega: tuple[int, ...], cap: int | None = None) -> GradedComplex:
    """Classical Koszul complex of the coefficient vector ``omega``.

    Position -p carries the wedge-degree-p basis (no coefficient part);
    the differential substitutes x_i -> omega[i] and kills the dt
    directions.  The even slots of ``omega`` are integers (canonical
    lifts into any supported base ring); the b odd slots must be zero.
    """
    cap = a + b if cap is None else cap
    _check_args(a, b, cap)
    omega = tuple(omega)
    if len(omega) != a + b:
        raise ValueError(f"omega must have {a + b} entries, got {len(omega)}")
    if not all(isinstance(v, int) for v in omega[:a]):
        raise ValueError("even slots of omega must be integers")
    if any(v != 0 for v in omega[a:]):
        raise ValueError("nonzero odd slot rejected: base rings here have no odd part")
    gens = GeneratorSet(a, b)

    def times(coef, gen):  # x_i becomes the scalar omega_i; t_j becomes 0
        return (omega[gen[1]], coef) if gen[0] == X else None
    support = _SUPPORT["specialized"](a, b, None)
    lo = -a if b == 0 else -cap
    return _complex("specialized", gens, None, range(lo, 1), support, lambda pos, src, dst: assemble(
        src, dst, contraction_stencil(gens, -pos, contract_euler), times), omega)
