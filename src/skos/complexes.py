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
between threads.  Each differential is named by what fixes it, (kind,
gens, weight, omega, position, operator) (``_complex``), so every build
of a slice shares its eliminations (``skos.exact_linalg.named``), filled
on first use with values that depend on the matrix alone: a rebuilt
slice is neither assembled nor reduced again, its rows are revived from
a byte snapshot of the first build's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

import skos.multilinear as multilinear
from skos.exact_linalg import ExactMatrix, named
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


# kind -> (weight n, omega) -> an integer that kills the homology, or None: n, as i_E d + d i_E = n
# (``exterior_d``), and gcd(omega), as dx_i ^ . is a homotopy from omega_i to 0 (Eisenbud, ch. 17)
_KILLED_BY = {
    "koszul": lambda n, omega: n,
    "derham": lambda n, omega: n,
    "berezinian": lambda n, omega: None,
    "specialized": lambda n, omega: math.gcd(*omega),
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
    ``pos + 1`` (rows = target basis, columns = source basis).  The fields fix
    the rest, such as ``killed_by`` and the support (``_SUPPORT``) where the
    full complex provably vanishes, so edge positions can report homology.
    """

    kind: str
    gens: GeneratorSet
    weight: int | None
    basis_at: dict[int, FreeBasis]
    diff_at: dict[int, ExactMatrix]
    omega: tuple[int, ...] | None = None

    positions = property(lambda self: tuple(self.basis_at))
    direction = property(lambda self: _direction(self.kind))
    support_min = property(lambda self: _SUPPORT[self.kind](*self.gens, self.weight)[0])
    support_max = property(lambda self: _SUPPORT[self.kind](*self.gens, self.weight)[1])
    killed_by = property(lambda self: _KILLED_BY[self.kind](self.weight, self.omega))

    def dim(self, pos: int) -> int:
        return len(self.basis_at.get(pos, ()))

    def outgoing(self, pos: int) -> ExactMatrix:
        """Matrix of the differential leaving ``pos``."""
        if pos not in self.basis_at:
            raise WindowError(f"position {pos} is not materialized")
        if pos + 1 in self.basis_at:
            return self.diff_at[pos]
        if self.support_max is not None and pos + 1 > self.support_max:
            return ExactMatrix(0, self.dim(pos))
        raise WindowError(f"position {pos + 1} is outside the materialized window")

    def incoming(self, pos: int) -> ExactMatrix:
        """Matrix of the differential arriving at ``pos``."""
        if pos not in self.basis_at:
            raise WindowError(f"position {pos} is not materialized")
        if pos - 1 in self.basis_at:
            return self.diff_at[pos - 1]
        if self.support_min is not None and pos - 1 < self.support_min:
            return ExactMatrix(self.dim(pos), 0)
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
                {"from": p, "rows": M.rows, "cols": M.cols, "entries": [[r, c, v] for r, c, v in M.triplets()]}
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
        omega = get("omega", lambda v: _ints(v, a + b) and not any(v[a:]) if special else v is None,
                    f"{a + b} integers, the last {b} zero" if special else "null")
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
            M = diff_at[pos] = ExactMatrix(rows, cols)
            last, in_order = (-1, -1), True
            row_parity, col_parity = basis_at[pos + 1].parities, basis_at[pos].parities
            for t in d["entries"]:  # checked here, so stored straight into the matrix
                r, c, v = t if type(t) is list and len(t) == 3 else (None, None, None)
                if not (type(r) is int and type(c) is int and type(v) is int and 0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"{where} has entry {t!r}")
                if row_parity[r] != col_parity[c]:
                    raise ValueError(f"{where} has entry {t!r}, which joins a row and a column of different parity")
                rc = (r, c)
                in_order = in_order and v != 0 and rc > last
                if r != last[0]:  # sorted, so each row's entries arrive together
                    row = M._r[r] = {}
                row[c], last = v, rc
            if not in_order:
                raise ValueError(f"{where} must list its nonzero entries once, sorted")
        bounds = list(_SUPPORT[kind](a, b, weight))  # homology trusts it at the window's edges
        get("support", lambda v: _ints(v, 2, none=True) and v == bounds, f"the {kind} support {bounds}")
        return cls(kind, gens, weight, basis_at, diff_at, tuple(omega) if special else None)


def _complex(kind: str, a: int, b: int, n: int | None, cap: int | None, op: Callable, stencil: Callable,
             times: Callable, omega: tuple | None = None, check: Callable = lambda: None) -> GradedComplex:
    """The enumerated basis of ``kind`` over (a|b) at each position, and the
    ``assemble``d matrix of ``stencil(gens, pos, op)`` and ``times`` leaving each but the last.

    The positions are the support of the full complex (``_SUPPORT``), cut at
    ``cap`` positions from 0 only when b > 0 and a cap is given: an (a|0) slice
    is finite and always whole, and ``cap=None`` is the whole support.  The rank,
    weight (which every kind but ``specialized`` has) and cap are checked first
    (each an ``int``, not a ``bool`` or a float, so the complex reads back
    through its own record), then the builder's ``check``, which may compare
    them; a support unbounded above needs a cap.

    Each matrix is named ``(kind, gens, n, omega, pos, op)``: these fix it,
    so a rebuild revives the first build's rows and shares its reductions,
    and fetches no stencil and assembles nothing.  The operator object
    is part of the name, as it is of the stencil caches' keys, so a traced
    or patched operator never meets another operator's memo.  The window
    (``cap``) is not: it picks the positions, not the matrix at one.
    """
    if type(a) is not int or type(b) is not int:
        raise ValueError("rank components must be integers")
    if a < 0 or b < 0:
        raise ValueError("rank components must be nonnegative")
    if type(n) is not int and kind != "specialized":  # the specialized complex has no weight
        raise ValueError("weight must be an integer")
    if cap is not None and type(cap) is not int:
        raise ValueError("cap must be an integer")
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    check()
    least, most = _SUPPORT[kind](a, b, n)
    if b and cap is not None:
        least, most = (-cap if least is None else max(least, -cap)), (cap if most is None else min(most, cap))
    if most is None:
        raise ValueError(f"the {kind} complex of rank ({a}|{b}) is unbounded above: a cap is required")
    gens, positions = GeneratorSet(a, b), range(least, most + 1)
    basis_at = {pos: _basis(kind, gens, n, pos) for pos in positions}
    diff_at = {pos: named((kind, gens, n, omega, pos, op),
                          lambda pos=pos: assemble(basis_at[pos], basis_at[pos + 1], stencil(gens, pos, op), times))
               for pos in positions[:-1]}
    return GradedComplex(kind, gens, n, basis_at, diff_at, omega)


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
    each a triple ``(coefficient, generator, wedge part)`` with the
    weight-1 generator ``(X, i)`` or ``(THETA, j)``.  ``op`` must be
    linear over the coefficient part and trade one wedge generator per
    term for its weight-1 partner, as the Euler contraction does: each
    term removes a different one, so the terms of a key name distinct parts.
    Built once per (gens, degree, op) and shared by every caller, so it
    must not be changed.
    """
    a, b = gens
    pool: dict[tuple, tuple] = {}
    stencil = {}
    for wedge in iter_wedge_monomials(a, b, degree):
        image = op(SuperPolynomial.single(gens, SuperMonomial((0,) * a, (), *wedge), 1))
        terms = []
        for tm, c in image.terms.items():
            gen = (THETA, tm.thetas[0]) if tm.thetas else (X, tm.x_pow.index(1))
            terms.append((int(c), pool.setdefault(gen, gen), _part(pool, tm.dxs, tm.dt_pow)))
        stencil[_part(pool, *wedge)] = tuple(terms)
    return stencil


@lru_cache(maxsize=_STENCILS)
def _derivative_stencil(gens: GeneratorSet, degree: int,
                        op: Callable[[SuperPolynomial], SuperPolynomial]) -> dict[tuple, tuple]:
    """Apply ``op`` (``exterior_d``) once to every coefficient monomial x^alpha t_S of ``degree``.

    The mirror of :func:`contraction_stencil`, as d(s*w) = ds*w for a wedge
    part w: maps ``(x_pow, thetas)`` to the triples ``(coefficient, (DX, i)
    or (DTHETA, j), coefficient part)`` of its image.  Each term removes
    a different coefficient generator, so the parts of a key are distinct.
    Cached and shared the same way.
    """
    a, b = gens
    pool: dict[tuple, tuple] = {}
    stencil = {}
    for coef in iter_sym_monomials(a, b, degree):
        image = op(SuperPolynomial.single(gens, SuperMonomial(*coef, (), (0,) * b), 1))
        terms = []
        for tm, c in image.terms.items():
            gen = (DX, tm.dxs[0]) if tm.dxs else (DTHETA, tm.dt_pow.index(1) + 1)
            terms.append((int(c), pool.setdefault(gen, gen), _part(pool, tm.x_pow, tm.thetas)))
        stencil[_part(pool, *coef)] = tuple(terms)
    return stencil


def assemble(src: FreeBasis, dst: FreeBasis, stencil: dict[tuple, tuple], times) -> ExactMatrix:
    """Matrix of the map sending the column ``s * v`` to the sum of
    ``c * (s*gen) * w`` over the stencil terms ``(c, gen, w)`` of v.

    Both bases are products of a wedge and a coefficient factor
    (:class:`~skos.multilinear.FreeBasis`).  The stencil's generators say
    which factor ``times`` acts on: x_i and t_j multiply the coefficient
    part, and the stencil is keyed on the wedge part (the contraction
    builders); dx_i and dt_j multiply the wedge part, and the stencil is
    keyed on the coefficient part (De Rham).  ``times(s, gen)`` returns
    ``(scalar, s*gen)`` with a nonzero scalar, or ``None`` when it vanishes.

    ``times`` runs once per generator and entry of its factor, into a
    table of (scalar, target offset), and each stencil key is looked up
    once per entry of the other factor; a row is then outer * |inner| +
    inner in the target's factors.  Columns run in basis order and each
    column's terms in stencil order.  The terms of one key name distinct
    parts (each stencil builder says why), so no column names a row twice,
    and no coefficient or scalar is zero: each term is one entry, written
    straight into its row, as ``ExactMatrix.from_triplets`` would store it.
    A term whose target is not in ``dst`` raises ``KeyError``.  An empty
    factor or a stencil with no term writes no entry.
    """
    on_coefs = True
    for terms in stencil.values():
        if terms:
            on_coefs = terms[0][1][0] in (X, THETA)  # the first generator's kind
            break
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
        for c, gen, part in stencil.get(key, ()):
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
    out = M._r
    for col, (terms, a) in enumerate(columns):
        for c, table, offset in terms:
            hit = table[a]
            if hit is not None:  # the key's parts are distinct, so each term has a row of its own
                r = offset + hit[1]
                if r in out:
                    out[r][col] = c * hit[0]
                else:
                    out[r] = {col: c * hit[0]}
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
    moving w across phi_v folded into ``c``.  Each such u adds a different
    wedge generator to v, so the parts of a key are distinct.
    """
    dual: dict[tuple, list] = {}
    for u, terms in stencil.items():
        for c, gen, v in terms:
            sign = -1 if gen[0] == THETA and sum(v[1]) & 1 else 1
            dual.setdefault(v, []).append((c * sign, gen, u))
    return dual


def build_koszul(a: int, b: int, n: int, cap: int | None = None) -> GradedComplex:
    """Weight-n slice of the contraction complex of a rank (a|b) module.

    Position -p carries the wedge-degree-p, symmetric-degree-(n-p)
    basis; the differential is the Euler contraction.
    """
    return _complex("koszul", a, b, n, cap, contract_euler,
                    lambda gens, pos, op: contraction_stencil(gens, -pos, op), _polynomial_times,
                    check=lambda: _nonnegative_weight(n))


def build_derham(a: int, b: int, n: int, cap: int | None = None) -> GradedComplex:
    """Weight-n slice of the exterior-derivative complex, over the window of ``_complex``."""
    return _complex("derham", a, b, n, cap, exterior_d,
                    lambda gens, pos, op: _derivative_stencil(gens, n - pos, op), _wedge_times,
                    check=lambda: _nonnegative_weight(n))


def _nonnegative_weight(n: int) -> None:
    if n < 0:
        raise ValueError("weight must be nonnegative")


def build_berezinian(a: int, b: int, n: int, cap: int) -> GradedComplex:
    """Weight-n slice of the dual of the contraction complex.

    Position i carries the dual of the wedge-degree-i piece tensored
    with the symmetric-degree-(n+i) piece; basis entries are written as
    combined monomials whose dx/dt part is to be read as a dual basis
    element.  The slice is unbounded above when a > 0 and b > 0, where
    ``cap`` bounds the window (``_complex``).
    """
    return _complex("berezinian", a, b, n, cap, contract_euler,
                    lambda gens, pos, op: _dual_stencil(contraction_stencil(gens, pos + 1, op)), _polynomial_times)


def specialize_koszul(a: int, b: int, omega: tuple[int, ...], cap: int | None = None) -> GradedComplex:
    """Classical Koszul complex of the coefficient vector ``omega``.

    Position -p carries the wedge-degree-p basis (no coefficient part);
    the differential substitutes x_i -> omega[i] and kills the dt
    directions.  The even slots of ``omega`` are integers (canonical
    lifts into any supported base ring); the b odd slots must be zero.
    """
    omega = tuple(omega)

    def check():
        if len(omega) != a + b:
            raise ValueError(f"omega must have {a + b} entries, got {len(omega)}")
        if not all(type(v) is int for v in omega[:a]):
            raise ValueError("even slots of omega must be integers")
        if any(v != 0 for v in omega[a:]):
            raise ValueError("nonzero odd slot rejected: base rings here have no odd part")
        if not all(type(v) is int for v in omega[a:]):
            raise ValueError("odd slots of omega must be integers")

    def times(coef, gen):  # x_i becomes the scalar omega_i; t_j and a zero omega_i vanish
        return (omega[gen[1]], coef) if gen[0] == X and omega[gen[1]] else None
    return _complex("specialized", a, b, None, a + b if cap is None else cap, contract_euler,
                    lambda gens, pos, op: contraction_stencil(gens, -pos, op), times, omega, check)
