"""Cohomology tables for twisted differential forms on projective superspace.

Two independent computational paths are provided for the super-dimensions
of H^i of the twisted p-form sheaves on a projective superspace with m
even and n odd homogeneous directions:

* a closed-form path built from alternating sums of binomial products
  (valid over a field of characteristic zero at every twist), and
* a direct path that assembles actual contraction matrices and takes
  exact kernels by parity: on the weight-r contraction complex for the
  bottom row, and on the negative-exponent local-cohomology model for
  the top row, at every twist.  At twist 0 the top row is shifted by the
  local model's one homology class, even and at wedge degree m + 1; the
  tests compute that class.  Model monomials are ``SuperMonomial``s
  whose x part holds the offsets alpha of the exponents -alpha-1 (empty
  for the Laurent model of the (0|n) space), and each model basis is a
  ``FreeBasis``, the product of its wedge and coefficient factors, so
  the models share the basis order, parities and factor-by-factor
  matrix assembler of the complexes.  The Laurent matrices do not depend
  on the twist, so each keeps its elimination (``exact_linalg.rank``)
  while it is cached: every twist of an m = 0 table eliminates it once.

The two paths agreeing cell by cell is the headline cross-validation of
this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from skos.complexes import GradedComplex, assemble, build_koszul, contraction_stencil, times_theta
from skos.exact_linalg import ExactMatrix, homology, parse_base, rank
from skos.multilinear import (
    FreeBasis,
    SuperDim,
    ZERO_DIM,
    _compositions,
    basis_wedge_sym,
    binom,
    super_product,
    wedge_rank,
)
from skos.super_poly import THETA, GeneratorSet, contract_euler

# Bound of each per-process cache below but ``local_matrix``.  A whole
# bott_table(m, n, 4, -4, 4, "both") sweep over the (m|n) in (2|2), (0|4),
# (3|1), (1|2) fills at most 162 entries of any one of them (local_basis).
# ``local_matrix`` keeps one entry: no cell of a sweep reads another
# cell's local matrix, and the cached one still serves a repeated cell.
_CACHE_SIZE = 256


class MethodDisagreementError(ValueError):
    """The closed-form and direct paths disagreed where both must apply."""


# ---------------------------------------------------------------------------
# closed forms

def line_bundle_rank(r: int, which: str, m: int, n: int) -> SuperDim:
    """Parity-split rank of H^0 (``which="zero"``) or H^m (``which="top"``)
    of the twist-r line bundle on the (m|n) projective superspace.

    Binomial conventions: C(a, 0) = 1 for any a, C(a, k) = 0 for
    a < k != 0.  For m = 0 the "zero" count is the rank of the Laurent
    module x^r A[t/x], which these conventions produce automatically.
    """
    if which not in ("zero", "top"):
        raise ValueError(f"which must be 'zero' or 'top', got {which!r}")
    even = odd = 0
    for i in range(n + 1):
        c = binom(m + r - i, m) if which == "zero" else binom(i - r - 1, m)
        c *= math.comb(n, i)
        if i & 1:
            odd += c
        else:
            even += c
    return SuperDim(even, odd)


def twisted_form_rank(p: int, r: int, which: str, m: int, n: int) -> SuperDim:
    """Alternating-sum super-dimension of H^0 / H^m of the twisted p-forms,
    over a field of characteristic zero; a negative sum is rejected.

    The Laurent model of m = 0 is contractible, since x_0 is a unit.  At
    r = 0 and m >= 1 the bottom row is the constants, (1|0) at p = 0 and
    zero above, the only cycles of the weight-0 contraction complex.  At
    r = 0 the local model has one class, x_0^-1...x_m^-1 dx_0...dx_m of
    parity (1|0) at wedge degree m + 1, so the top row gains (-1)^(p-m)
    for p >= m.
    """
    if which == "zero" and m >= 1 and r == 0:
        return SuperDim(1, 0) if p == 0 else ZERO_DIM
    total = ZERO_DIM
    for j in range(p + 1):
        term = super_product(wedge_rank(p - j, m + 1, n), line_bundle_rank(r - p + j, which, m, n))
        total = total - term if j & 1 else total + term
    if which == "top" and m >= 1 and r == 0 and p >= m:
        total += SuperDim(-1 if (p - m) & 1 else 1, 0)
    if total.even < 0 or total.odd < 0:
        raise ValueError(
            f"alternating sum is negative at (p={p}, r={r}, {which}, m={m}, n={n}); "
            "the closed form applies in characteristic zero"
        )
    return total


# ---------------------------------------------------------------------------
# cohomology tables

@dataclass(frozen=True)
class CohomologyTable:
    """Rows i = 0..m of parity-split dimensions for one (m, n, p, r) cell."""

    m: int
    n: int
    p: int
    r: int
    method: str
    rows: tuple[SuperDim, ...]

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "p": self.p,
            "r": self.r,
            "method": self.method,
            "rows": [{"i": i, "even": d.even, "odd": d.odd} for i, d in enumerate(self.rows)],
        }

    def csv_rows(self) -> list[str]:
        return [
            f"{self.m},{self.n},{self.p},{self.r},{i},{d.even},{d.odd},{self.method}"
            for i, d in enumerate(self.rows)
        ]


CSV_HEADER = "m,n,p,r,i,even,odd,method"


def line_bundle_cohomology(m: int, n: int, r: int) -> CohomologyTable:
    """Closed-form cohomology table of the twist-r line bundle: the p = 0 table."""
    return forms_cohomology_formula(m, n, 0, r)


# ---------------------------------------------------------------------------
# direct path: contraction-matrix kernels

def _kernel(src: FreeBasis, dst: FreeBasis, matrix, base) -> SuperDim:
    """Kernel by parity of the even map ``matrix()`` from ``src`` to ``dst``,
    from its pivot rows of each parity.  When either basis is empty the map
    is zero and its kernel is all of ``src``, so ``matrix`` is not called."""
    if not src or not dst:
        return src.dims()
    return src.dims() - rank(matrix(), base, dst.parities)


@lru_cache(maxsize=_CACHE_SIZE)
def _koszul(m: int, n: int, r: int) -> GradedComplex:
    return build_koszul(m + 1, n, r)


def _koszul_cycles(m: int, n: int, p: int, r: int, base) -> SuperDim:
    """Kernel of the contraction leaving position -p of the weight-r slice,
    from the elimination its differential keeps for ``homology`` too; a position
    the slice does not materialize (p > m + 1 when n = 0) is empty."""
    if r < 0 or p > r:
        return ZERO_DIM
    C = _koszul(m, n, r)
    src, dst = (C.basis_at.get(pos, FreeBasis(C.gens)) for pos in (-p, 1 - p))
    return _kernel(src, dst, lambda: C.diff_at[-p], base)


def _koszul_homology(m: int, n: int, pos: int, r: int, base) -> SuperDim:
    if r < 0 or pos > 0 or pos < -r:
        return ZERO_DIM
    C = _koszul(m, n, r)
    if pos not in C.basis_at:
        return ZERO_DIM
    return homology(C, base, pos).free


# the negative-exponent local model: monomials  x^(-alpha-1) * t_T * dx_E * dt^beta

@lru_cache(maxsize=_CACHE_SIZE)
def local_basis(m: int, n: int, p: int, r: int) -> FreeBasis:
    """All local monomials of wedge degree p and internal degree r, over (m+1|n).

    ``SuperMonomial(alpha, T, E, beta)`` stands for
    x^(-alpha-1) * t_T * dx_E * dt^beta: every x slot is present with
    exponent <= -1, and multiplication by x_i decrements the exponent,
    annihilating the monomial when ``alpha[i]`` is already 0.  The
    coefficient parts (alpha, T) have |alpha| = |T| + p - r - (m + 1)
    whatever the wedge part, so the basis is a product of its two factors,
    and its wedge factor is ``basis_wedge_sym``'s, which every twist shares.
    """
    gens = GeneratorSet(m + 1, n)
    if p < 0:
        return FreeBasis(gens)
    coefs = [
        (alpha, thetas)
        for k in range(max(r + m + 1 - p, 0), n + 1)
        for thetas in combinations(range(1, n + 1), k)
        for alpha in _compositions(k + p - r - (m + 1), m + 1)
    ]
    return FreeBasis(gens, basis_wedge_sym(m + 1, n, p, 0).wedges, tuple(sorted(coefs)))


def _cone_times(coef, gen):
    """x_i lowers alpha[i] and leaves the cone at 0; t_j is inserted with its sign."""
    kind, i = gen
    if kind == THETA:
        return times_theta(coef, i)
    alpha, thetas = coef
    if alpha[i] == 0:
        return None
    return 1, (alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :], thetas)


@lru_cache(maxsize=1)
def local_matrix(m: int, n: int, r: int, p: int) -> ExactMatrix:
    """Contraction matrix from wedge degree p to p-1 on the local model.

    x_i-multiplication decrements a negative exponent and annihilates
    the monomial at the truncation boundary; t_j-multiplication inserts
    t_j with the anticommutation sign or annihilates on repetition.
    """
    return assemble(
        local_basis(m, n, p, r),
        local_basis(m, n, p - 1, r),
        contraction_stencil(GeneratorSet(m + 1, n), p, contract_euler),
        _cone_times,
    )


# the m = 0 model: Laurent in the single x, so its matrices never truncate

@lru_cache(maxsize=_CACHE_SIZE)
def laurent_basis(n: int, p: int) -> FreeBasis:
    """Model monomials x^(r-p-|T|) * t_T * dx_E * dt^beta on the (0|n)
    space, over (1|n) and stored with an empty x part: the one x exponent
    is fixed by the ambient degree, so the basis is independent of r.
    Its factors are ``basis_wedge_sym``'s wedges and every t_T, in order."""
    gens = GeneratorSet(1, n)
    if p < 0:
        return FreeBasis(gens)
    coefs = sorted(((), thetas) for k in range(n + 1) for thetas in combinations(range(1, n + 1), k))
    return FreeBasis(gens, basis_wedge_sym(1, n, p, 0).wedges, tuple(coefs))


def _laurent_times(coef, gen):
    """x leaves the coefficient part as it is; t_j is inserted with its sign."""
    return times_theta(coef, gen[1]) if gen[0] == THETA else (1, coef)


@lru_cache(maxsize=_CACHE_SIZE)
def laurent_matrix(n: int, p: int) -> ExactMatrix:
    """Contraction matrix from wedge degree p to p-1 on the Laurent model.

    It does not depend on the twist, so every twist shares the
    eliminations its memo keeps.  They go with the cached matrix, so
    ``laurent_matrix.cache_clear()`` drops them too.
    """
    return assemble(
        laurent_basis(n, p),
        laurent_basis(n, p - 1),
        contraction_stencil(GeneratorSet(1, n), p, contract_euler),
        _laurent_times,
    )


def forms_cohomology_formula(m: int, n: int, p: int, r: int) -> CohomologyTable:
    """Closed-form table for the twisted p-forms; needs characteristic zero.

    The bottom and top rows are ``twisted_form_rank`` values and the
    middle rows vanish, except that at r = 0 the rows below the top
    follow the Kronecker pattern: row p is (1|0) for p < m, which for
    p = 0 is the bottom row's constant.  The top
    row at r = 0 counts the local model's one class x_0^-1...x_m^-1
    dx_0...dx_m, of parity (1|0) at wedge degree m + 1.  The Laurent
    model of m = 0 is contractible (x_0 is a unit), so its sum holds at
    every twist.
    """
    if m < 0 or n < 0 or p < 0:
        raise ValueError("m, n, p must be nonnegative")
    rows = [ZERO_DIM] * (m + 1)
    rows[0] = twisted_form_rank(p, r, "zero", m, n)
    if r == 0 and 0 < p < m:
        rows[p] = SuperDim(1, 0)
    if m > 0:
        rows[m] = twisted_form_rank(p, r, "top", m, n)
    return CohomologyTable(m, n, p, r, "formula", tuple(rows))


def forms_cohomology_direct(m: int, n: int, p: int, r: int, base="Q") -> CohomologyTable:
    """Direct table from exact kernels, by parity, of contraction matrices.

    Bottom row: cycles of the weight-r contraction complex at wedge
    degree p.  Middle rows: homology of the weight-r contraction complex.
    Top row (the only row for m = 0, where the model is the Laurent one):
    cycles of the local-cohomology model at wedge degree p and internal
    degree r, at every twist.  At r = 0 the local model has one class,
    x_0^-1...x_m^-1 dx_0...dx_m, even and at wedge degree m + 1, so the
    top row is shifted by it: (1|0) more at p = m, (1|0) less at p = m + 1.
    Base must be a field (Q, or a prime field for exploratory
    characteristic-p output).
    """
    if m < 0 or n < 0 or p < 0:
        raise ValueError("m, n, p must be nonnegative")
    kind, _ = parse_base(base)
    if kind == "Z":
        raise ValueError("direct tables are computed over a field (Q or Fp:<prime>)")
    rows = [ZERO_DIM] * (m + 1)
    if m == 0:
        src, dst, model = laurent_basis(n, p), laurent_basis(n, p - 1), lambda: laurent_matrix(n, p)
    else:
        rows[0] = _koszul_cycles(m, n, p, r, base)
        for i in range(1, m):
            rows[i] = _koszul_homology(m, n, i - p, r, base)
        src, dst, model = local_basis(m, n, p, r), local_basis(m, n, p - 1, r), lambda: local_matrix(m, n, r, p)
    rows[m] = _kernel(src, dst, model, base)
    if m > 0 and r == 0 and p in (m, m + 1):
        rows[m] += SuperDim(1 if p == m else -1, 0)
    return CohomologyTable(m, n, p, r, "direct", tuple(rows))


def bott_table(
    m: int,
    n: int,
    p_max: int,
    r_min: int,
    r_max: int,
    method: str = "both",
    base="Q",
    p_min: int = 0,
) -> list[CohomologyTable]:
    """Batch driver: tables for p = p_min..p_max, r = r_min..r_max in that order.

    With ``method="both"`` every cell is computed along both paths and a
    disagreement is a hard error.  ``base`` other than Q needs ``method="direct"``.
    """
    if method not in ("formula", "direct", "both"):
        raise ValueError(f"unknown method {method!r}")
    if method != "direct" and parse_base(base)[0] != "Q":
        raise ValueError(f"method {method!r} computes over Q only, not over {base}")
    if p_max < 0:
        raise ValueError(f"p_max must be nonnegative, got {p_max}")
    if not 0 <= p_min <= p_max:
        raise ValueError(f"p_min must lie in 0..p_max ({p_max}), got {p_min}")
    if r_min > r_max:
        raise ValueError(f"empty twist range: r_min {r_min} > r_max {r_max}")
    tables = []
    for p in range(p_min, p_max + 1):
        for r in range(r_min, r_max + 1):
            if method == "formula":
                tables.append(forms_cohomology_formula(m, n, p, r))
            elif method == "direct":
                tables.append(forms_cohomology_direct(m, n, p, r, base))
            else:
                f = forms_cohomology_formula(m, n, p, r)
                d = forms_cohomology_direct(m, n, p, r, "Q")
                if f.rows != d.rows:
                    raise MethodDisagreementError(
                        f"formula {tuple(map(str, f.rows))} != direct "
                        f"{tuple(map(str, d.rows))} at (m={m}, n={n}, p={p}, r={r})"
                    )
                tables.append(CohomologyTable(m, n, p, r, "both", f.rows))
    return tables
