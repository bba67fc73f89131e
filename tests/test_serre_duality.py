"""Serre duality on P^(m|n): the Bott formula against the Berezinian complex.

The Euler sequence 0 -> Omega^1 -> O(-1)^(m+1|n) -> O -> 0 gives the
dualizing sheaf Ber(Omega^1) = O(n - m - 1), and Serre duality on a
supermanifold pairs H^i(F) with H^(m-i)(F^v (x) Ber(Omega^1)), up to the
parity shift Pi^n, which swaps even and odd when n is odd (Haske and
Wells, "Serre duality on complex supermanifolds", Duke Math. J. 54, 1987).

- Line bundles: H^0(O(r)) = Pi^n H^m(O(n - m - 1 - r)).
- The partner of Omega^p(r) is Lambda^p T(s), s = n - m - 1 - r.  The
  sequence 0 -> Lambda^p T -> Lambda^(p+1) V(p+1) -> Lambda^(p+2) V(p+2),
  V = O^(m+1|n), is exact (wedge with the Euler field), so H^0(Lambda^p T(s))
  is the kernel of the differential leaving position p + 1 of the weight-s
  Berezinian complex of rank (m+1|n): the top row of the table of
  Omega^p(r) is Pi^n of it.
- Row i, 0 < i < m, of that table is Pi^n of the homology of the same
  complex at position p + 1 + m - i.

The closed form (``skos.bott``), the Berezinian complex (``skos.complexes``)
and its elimination (``skos.exact_linalg``) meet only here, so a wrong
weight or a lost parity shift shows up as a mismatch; the two mutants at
the end check that it does.
"""

from skos.bott import forms_cohomology_formula, line_bundle_rank
from skos.complexes import build_berezinian
from skos.exact_linalg import homology, rank
from skos.multilinear import ZERO_DIM

LINE_CELLS = [(m, n, r) for m in range(1, 5) for n in range(5) for r in range(-10, 11)]
FORM_CELLS = [(m, n, p, r) for m in range(1, 4) for n in range(3) if m + n <= 4 for p in range(4) for r in range(-4, 5)]
MIDDLE_CELLS = [cell for cell in FORM_CELLS if cell[0] > 1]


def canonical_weight(m: int, n: int) -> int:
    """The twist of Ber(Omega^1) on P^(m|n)."""
    return n - m - 1


def _kernel(C, pos):
    """Kernel by parity over Q of the differential leaving ``pos``; zero
    past the support, where ``pos`` is not materialized."""
    if pos not in C.basis_at:
        return ZERO_DIM
    rows = C.basis_at[pos + 1].parities if pos + 1 in C.basis_at else ()
    return C.basis_at[pos].dims() - rank(C.outgoing(pos), "Q", rows)


def line_mismatches(weight=canonical_weight, shift=True):
    return [(m, n, r) for m, n, r in LINE_CELLS
            if line_bundle_rank(r, "zero", m, n)
            != line_bundle_rank(weight(m, n) - r, "top", m, n).flip(n * shift)]


def top_row_mismatches(weight=canonical_weight, shift=True):
    bad = []
    for m, n, p, r in FORM_CELLS:
        C = build_berezinian(m + 1, n, weight(m, n) - r, p + 2)
        if forms_cohomology_formula(m, n, p, r).rows[m] != _kernel(C, p + 1).flip(n * shift):
            bad.append((m, n, p, r))
    return bad


def test_line_bundles():
    assert line_mismatches() == []
    assert sum(line_bundle_rank(r, "zero", m, n) != ZERO_DIM for m, n, r in LINE_CELLS) > len(LINE_CELLS) // 2


def test_top_row_is_the_berezinian_kernel():
    assert top_row_mismatches() == []
    nonzero = [cell for cell in FORM_CELLS if forms_cohomology_formula(*cell).rows[cell[0]] != ZERO_DIM]
    assert len(FORM_CELLS) == 288 and len(nonzero) == 131


def test_middle_rows_are_berezinian_homology():
    nonzero = []
    for m, n, p, r in MIDDLE_CELLS:
        C = build_berezinian(m + 1, n, canonical_weight(m, n) - r, p + m + 1)
        rows = forms_cohomology_formula(m, n, p, r).rows
        for i in range(1, m):
            pos = p + 1 + m - i
            dual = homology(C, "Q", pos).free if pos in C.basis_at else ZERO_DIM
            assert rows[i] == dual.flip(n), (m, n, p, r, i)
            if rows[i] != ZERO_DIM:
                nonzero.append((m, n, p, r, i))
    # the Kronecker classes of r = 0, row p = (1|0) for 0 < p < m, and nothing else
    assert nonzero == [(m, n, p, 0, p) for m, n, p, r in MIDDLE_CELLS if r == 0 and 0 < p < m]
    assert sum(m - 1 for m, *_ in MIDDLE_CELLS) == 252 and len(nonzero) == 7


def test_checks_catch_a_lost_parity_shift_and_a_wrong_twist():
    """Dropping Pi^n fails on odd n only; twisting by n - m instead of
    n - m - 1 fails on both grids."""
    for mismatches in (line_mismatches, top_row_mismatches):
        lost = mismatches(shift=False)
        assert lost and all(cell[1] % 2 for cell in lost)
        assert mismatches(weight=lambda m, n: n - m)
