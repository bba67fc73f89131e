"""Finite exact-integer matrix complexes.

Fixed-weight slices of the contraction (Koszul) complex, the exterior
derivative (De Rham) complex, their B-linear dual (Berezinian complex),
and the classical specialization of the contraction complex along a
coefficient vector.  A complex stores, per position, a monomial basis
and the integer matrix of the differential leaving that position; the
differential always maps position ``pos`` to ``pos + 1``.

All structure constants are integers regardless of the eventual base
ring; base change happens in :mod:`skos.exact_linalg`.  Built complexes
are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from skos.exact_linalg import ExactMatrix
from skos.multilinear import FreeBasis, iter_wedge_monomials
from skos.super_poly import (
    THETA,
    X,
    GeneratorSet,
    SuperMonomial,
    SuperPolynomial,
    contract_euler,
    exterior_d,
    parse_monomial,
)


class WindowError(ValueError):
    """A homology request needs a neighbor outside the materialized window."""


@dataclass(frozen=True, eq=False)
class GradedComplex:
    """A finite window of free-module bases and integer differentials.

    ``diff_at[pos]`` is the matrix of the differential from ``pos`` to
    ``pos + 1`` (rows = target basis, columns = source basis).  The
    support bounds record where the full complex provably vanishes
    (``None`` means unbounded on that side), so edge positions can still
    report homology.
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
        basis = self.basis_at.get(pos)
        return len(basis) if basis is not None else 0

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
            "bases": [[str(m) for m in self.basis_at[p].entries] for p in self.positions],
            "differentials": [
                {
                    "from": p,
                    "rows": self.diff_at[p].rows,
                    "cols": self.diff_at[p].cols,
                    "entries": [list(t) for t in self.diff_at[p].triplets()],
                }
                for p in self.positions
                if p in self.diff_at
            ],
        }

    @classmethod
    def from_record(cls, record: dict) -> "GradedComplex":
        if record.get("format") != "skos.graded-complex/1":
            raise ValueError(f"unknown complex format {record.get('format')!r}")
        gens = GeneratorSet(*record["rank"])
        positions = tuple(record["positions"])
        basis_at = {}
        for pos, monos in zip(positions, record["bases"]):
            entries = tuple(parse_monomial(gens, s) for s in monos)
            basis_at[pos] = FreeBasis(gens, entries)
        diff_at = {}
        for d in record["differentials"]:
            diff_at[d["from"]] = ExactMatrix.from_triplets(
                d["rows"], d["cols"], [tuple(t) for t in d["entries"]]
            )
        support = record.get("support", [None, None])
        omega = record.get("omega")
        return cls(
            kind=record["kind"],
            gens=gens,
            weight=record["weight"],
            direction=record["direction"],
            positions=positions,
            basis_at=basis_at,
            diff_at=diff_at,
            support_min=support[0],
            support_max=support[1],
            omega=tuple(omega) if omega is not None else None,
        )


def _basis_or_empty(a: int, b: int, p: int, q: int) -> FreeBasis:
    from skos.multilinear import basis_wedge_sym

    if p < 0 or q < 0:
        return FreeBasis(GeneratorSet(a, b), ())
    return basis_wedge_sym(a, b, p, q)


def _operator_matrix(
    gens: GeneratorSet,
    src: FreeBasis,
    dst: FreeBasis,
    op: Callable[[SuperPolynomial], SuperPolynomial],
) -> ExactMatrix:
    index = dst.index()
    triplets = []
    for col, mono in enumerate(src.entries):
        image = op(SuperPolynomial.single(gens, mono, 1))
        for tm, c in image.terms.items():
            triplets.append((index[tm], col, int(c)))
    return ExactMatrix.from_triplets(len(dst), len(src), triplets)


def contraction_stencil(
    gens: GeneratorSet, degree: int, op: Callable[[SuperPolynomial], SuperPolynomial]
) -> dict[tuple, list]:
    """Apply ``op`` once to every pure wedge monomial dx_E dt^beta of ``degree``.

    Maps each wedge part ``(dxs, dt_pow)`` to the terms of its image,
    written as ``(coefficient, generator, wedge part)`` with the weight-1
    generator ``(X, i)`` or ``(THETA, j)`` in front of the wedge part.
    ``op`` must be linear over the coefficient part and trade one wedge
    generator per term for its weight-1 partner, as the Euler contraction
    does.
    """
    a, b = gens
    stencil = {}
    for wedge in iter_wedge_monomials(a, b, degree):
        image = op(SuperPolynomial.single(gens, SuperMonomial((0,) * a, (), *wedge), 1))
        stencil[wedge] = [
            (int(c), (THETA, tm.thetas[0]) if tm.thetas else (X, tm.x_pow.index(1)), (tm.dxs, tm.dt_pow))
            for tm, c in image.terms.items()
        ]
    return stencil


def assemble(src, dst, stencil: dict[tuple, list], times) -> ExactMatrix:
    """Matrix of the map sending the column ``s * v`` (coefficient part s,
    wedge part v) to the sum of ``c * (s*gen) * w`` over the stencil terms
    ``(c, gen, w)`` of v.

    Basis entries are 4-tuples: two fields of coefficient part, then the
    wedge part ``(dxs, dt_pow)``.  ``times(s, gen)`` returns
    ``(scalar, coefficient part of s*gen)``, or ``None`` when it vanishes.
    """
    index = {mono: i for i, mono in enumerate(dst)}
    triplets = []
    for col, mono in enumerate(src):
        coef = mono[:2]
        for c, gen, wedge in stencil.get(mono[2:], ()):
            res = times(coef, gen)
            if res is not None:
                scalar, target = res
                triplets.append((index[target + wedge], col, c * scalar))
    return ExactMatrix.from_triplets(len(dst), len(src), triplets)


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


def _dual_stencil(stencil: dict[tuple, list]) -> dict[tuple, list]:
    """Precomposition with the map of ``stencil``, on the dual wedge basis.

    The dual element phi_v maps to the sum over the wedge monomials u
    whose image holds ``c * w * v`` of ``c * w * phi_u``, with the sign of
    moving w across phi_v folded into ``c``.
    """
    dual: dict[tuple, list] = {}
    for u, terms in stencil.items():
        for c, gen, v in terms:
            sign = -1 if gen[0] == THETA and sum(v[1]) & 1 else 1
            dual.setdefault(v, []).append((c * sign, gen, u))
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
    if cap is None:
        cap = n
    _check_args(a, b, cap, n)
    top = min(n, a) if b == 0 else n
    lo = -top if b == 0 else -min(top, cap)
    gens = GeneratorSet(a, b)
    positions = tuple(range(lo, 1))
    basis_at = {pos: _basis_or_empty(a, b, -pos, n + pos) for pos in positions}
    diff_at = {}
    for pos in positions[:-1]:
        stencil = contraction_stencil(gens, -pos, contract_euler)
        diff_at[pos] = assemble(basis_at[pos].entries, basis_at[pos + 1].entries, stencil, _polynomial_times)
    return GradedComplex(
        kind="koszul",
        gens=gens,
        weight=n,
        direction=-1,
        positions=positions,
        basis_at=basis_at,
        diff_at=diff_at,
        support_min=-top,
        support_max=0,
    )


def build_derham(a: int, b: int, n: int, cap: int | None = None) -> GradedComplex:
    """Weight-n slice of the exterior-derivative complex, positions 0..top."""
    if cap is None:
        cap = n
    _check_args(a, b, cap, n)
    top = min(n, a) if b == 0 else min(n, cap)
    support_max = min(n, a) if b == 0 else n
    gens = GeneratorSet(a, b)
    positions = tuple(range(0, top + 1))
    basis_at = {p: _basis_or_empty(a, b, p, n - p) for p in positions}
    diff_at = {
        pos: _operator_matrix(gens, basis_at[pos], basis_at[pos + 1], exterior_d)
        for pos in positions[:-1]
    }
    return GradedComplex(
        kind="derham",
        gens=gens,
        weight=n,
        direction=1,
        positions=positions,
        basis_at=basis_at,
        diff_at=diff_at,
        support_min=0,
        support_max=support_max,
    )


def build_berezinian(a: int, b: int, n: int, cap: int) -> GradedComplex:
    """Weight-n slice of the dual of the contraction complex.

    Position i carries the dual of the wedge-degree-i piece tensored
    with the symmetric-degree-(n+i) piece; basis entries are written as
    combined monomials whose dx/dt part is to be read as a dual basis
    element.  The slice is unbounded above when a > 0 and b > 0, so
    positions 0..cap are materialized.
    """
    _check_args(a, b, cap)
    bounds = []
    if b == 0:
        bounds.append(a)
    if a == 0:
        bounds.append(max(b - n, 0))
    support_max = min(bounds) if bounds else None
    top = cap if support_max is None else min(cap, support_max)
    gens = GeneratorSet(a, b)
    positions = tuple(range(0, top + 1))
    basis_at = {i: _basis_or_empty(a, b, i, n + i) for i in positions}
    diff_at = {}
    for pos in positions[:-1]:
        stencil = _dual_stencil(contraction_stencil(gens, pos + 1, contract_euler))
        diff_at[pos] = assemble(basis_at[pos].entries, basis_at[pos + 1].entries, stencil, _polynomial_times)
    return GradedComplex(
        kind="berezinian",
        gens=gens,
        weight=n,
        direction=1,
        positions=positions,
        basis_at=basis_at,
        diff_at=diff_at,
        support_min=0,
        support_max=support_max,
    )


def specialize_koszul(a: int, b: int, omega: tuple[int, ...], cap: int | None = None) -> GradedComplex:
    """Classical Koszul complex of the coefficient vector ``omega``.

    Position -p carries the wedge-degree-p basis (no coefficient part);
    the differential substitutes x_i -> omega[i] and kills the dt
    directions.  The even slots of ``omega`` are integers (canonical
    lifts into any supported base ring); the b odd slots must be zero.
    """
    if cap is None:
        cap = a + b
    _check_args(a, b, cap)
    omega = tuple(omega)
    if len(omega) != a + b:
        raise ValueError(f"omega must have {a + b} entries, got {len(omega)}")
    for v in omega[:a]:
        if not isinstance(v, int):
            raise ValueError("even slots of omega must be integers")
    for v in omega[a:]:
        if v != 0:
            raise ValueError("nonzero odd slot rejected: base rings here have no odd part")
    gens = GeneratorSet(a, b)
    lo = -a if b == 0 else -cap
    positions = tuple(range(lo, 1))
    basis_at = {pos: _basis_or_empty(a, b, -pos, 0) for pos in positions}

    def times(coef, gen):  # x_i becomes the scalar omega_i; t_j becomes 0
        return (omega[gen[1]], coef) if gen[0] == X else None

    diff_at = {}
    for pos in positions[:-1]:
        stencil = contraction_stencil(gens, -pos, contract_euler)
        diff_at[pos] = assemble(basis_at[pos].entries, basis_at[pos + 1].entries, stencil, times)
    return GradedComplex(
        kind="specialized",
        gens=gens,
        weight=None,
        direction=-1,
        positions=positions,
        basis_at=basis_at,
        diff_at=diff_at,
        support_min=-a if b == 0 else None,
        support_max=0,
        omega=omega,
    )
