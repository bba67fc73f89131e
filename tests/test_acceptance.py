"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is exact integer/rational arithmetic; there are no numeric
tolerances anywhere.  Each test prints one PASS line when it completes
(visible with ``pytest -s`` or in captured output); a FAILED test line
from pytest is the corresponding fail marker.
"""

import math
import random

from skos.berezinian import (
    GrassmannElement,
    SuperMatrix,
    ber,
    det_even,
    invert_unit,
    random_invertible_supermatrix,
)
from skos.bott import (
    forms_cohomology_direct,
    forms_cohomology_formula,
    line_bundle_cohomology,
)
from skos.complexes import (
    build_berezinian,
    build_derham,
    build_koszul,
    specialize_koszul,
)
from skos.exact_linalg import ExactMatrix, homology
from skos.multilinear import SuperDim

ZERO = SuperDim(0, 0)


def _rank_envelope(total=4):
    for a in range(total + 1):
        for b in range(total + 1 - a):
            yield a, b


def test_c01_cartan_identity_as_exact_matrices():
    """Contraction and exterior derivative anticommute to weight * identity."""
    for a, b in _rank_envelope():
        for n in range(0, 6):
            K = build_koszul(a, b, n, n)
            D = build_derham(a, b, n, n)
            for lam in range(0, n + 1):
                if -lam not in K.basis_at or lam not in D.basis_at:
                    continue
                dim = K.dim(-lam)
                assert dim == D.dim(lam)
                t1 = (
                    K.diff_at[-(lam + 1)] @ D.diff_at[lam]
                    if lam in D.diff_at and -(lam + 1) in K.diff_at
                    else ExactMatrix(dim, dim)
                )
                t2 = (
                    D.diff_at[lam - 1] @ K.diff_at[-lam]
                    if -lam in K.diff_at and lam - 1 in D.diff_at
                    else ExactMatrix(dim, dim)
                )
                assert t1 + t2 == ExactMatrix.identity(dim, n), (a, b, n, lam)
    print("ACCEPTANCE 01 cartan-identity: PASS")


def test_c02_nilpotence_of_all_differentials():
    """Squared differentials vanish for both complexes and their dual."""
    for a, b in _rank_envelope():
        for n in range(0, 6):
            for C in (build_koszul(a, b, n, n), build_derham(a, b, n, n)):
                for pos in C.positions[:-1]:
                    if pos + 1 in C.diff_at:
                        assert (C.diff_at[pos + 1] @ C.diff_at[pos]).is_zero(), (C.kind, a, b, n, pos)
    for p in range(0, 3):
        for q in range(0, 3):
            for n in range(-4, 5):
                B = build_berezinian(p, q, n, 6)
                for pos in B.positions[:-1]:
                    if pos + 1 in B.diff_at:
                        assert (B.diff_at[pos + 1] @ B.diff_at[pos]).is_zero(), (p, q, n, pos)
    print("ACCEPTANCE 02 nilpotence: PASS")


def test_c03_acyclicity_over_q():
    """Both weight slices are exact over the rationals for invertible weight."""
    for a, b in _rank_envelope():
        for n in range(1, 7):
            for C in (build_koszul(a, b, n, n), build_derham(a, b, n, n)):
                for pos in C.positions:
                    h = homology(C, "Q", pos)
                    assert h.free == ZERO, (C.kind, a, b, n, pos, str(h.free))
    print("ACCEPTANCE 03 acyclicity-over-Q: PASS")


def test_c04_purely_even_integral_acyclicity():
    """With no odd generators the contraction slice resolves exactly over Z."""
    for a in range(0, 4):
        for n in range(1, 7):
            C = build_koszul(a, 0, n)
            for pos in C.positions:
                h = homology(C, "Z", pos)
                assert h.free == ZERO and not h.torsion_even and not h.torsion_odd, (a, n, pos)
    print("ACCEPTANCE 04 purely-even-integral-acyclicity: PASS")


def test_c05_integral_torsion_of_the_odd_line():
    """The rank (0|1) contraction slice has cyclic torsion i+1 at position -i."""
    for i in range(1, 7):
        n = i + 1
        C = build_koszul(0, 1, n, n)
        h = homology(C, "Z", -i)
        assert h.free == ZERO, (i, str(h.free))
        expected = ((i + 1),)
        if (i + 1) % 2 == 0:
            assert h.torsion_even == expected and h.torsion_odd == (), i
        else:
            assert h.torsion_odd == expected and h.torsion_even == (), i
    print("ACCEPTANCE 05 integral-torsion: PASS")


def test_c06_berezinian_cohomology_over_q():
    """The dual complex is concentrated at position p with the parity of q."""
    for p in range(0, 3):
        for q in range(0, 3):
            for n in range(-4, 5):
                B = build_berezinian(p, q, n, 6)
                for pos in B.positions:
                    if pos + 1 not in B.basis_at and B.support_max is None:
                        continue  # window edge of an unbounded complex
                    h = homology(B, "Q", pos)
                    expected = ZERO
                    if pos == p and n == q - p:
                        expected = SuperDim(1, 0) if q % 2 == 0 else SuperDim(0, 1)
                    assert h.free == expected, (p, q, n, pos, str(h.free), str(expected))
    print("ACCEPTANCE 06 berezinian-cohomology: PASS")


def test_c07_berezin_determinant_properties():
    """Multiplicativity, closed-form agreement, block and unipotent cases."""
    rng = random.Random(20240817)
    checked = 0
    while checked < 100:
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        if p == 0 and q == 0:
            continue
        gens = rng.randint(1, 4)
        M = random_invertible_supermatrix(rng, p, q, gens)
        N = random_invertible_supermatrix(rng, p, q, gens)
        # ber() evaluates both closed forms and raises on any mismatch,
        # so each call below also certifies their exact agreement
        assert ber(M @ N) == ber(M) * ber(N), (p, q, gens, checked)
        one = GrassmannElement.scalar(gens, 1)
        zero = GrassmannElement.zero(gens)
        if p and q:
            zp = [[zero] * q for _ in range(p)]
            zq = [[zero] * p for _ in range(q)]
            block = SuperMatrix.from_blocks(p, q, gens, M.X, zp, zq, M.T)
            assert ber(block) == det_even(M.X) * invert_unit(det_even(M.T))
            eye = SuperMatrix.identity(p, q, gens)
            lower = SuperMatrix.from_blocks(p, q, gens, eye.X, zp, M.Z, eye.T)
            upper = SuperMatrix.from_blocks(p, q, gens, eye.X, M.Y, zq, eye.T)
            assert ber(lower) == one and ber(upper) == one
        checked += 1
    print("ACCEPTANCE 07 berezin-determinant: PASS")


def _enumerate_sections(m, n, r):
    e = o = 0
    if m == 0:
        for k in range(n + 1):
            c = math.comb(n, k)
            e, o = (e, o + c) if k % 2 else (e + c, o)
        return SuperDim(e, o)
    for k in range(n + 1):
        if r - k < 0:
            continue
        c = math.comb(n, k) * math.comb(m + r - k, m)
        e, o = (e, o + c) if k % 2 else (e + c, o)
    return SuperDim(e, o)


def _enumerate_local(m, n, r):
    e = o = 0
    for k in range(n + 1):
        total = k - r - (m + 1)
        if total < 0:
            continue
        c = math.comb(n, k) * math.comb(m + total, m)
        e, o = (e, o + c) if k % 2 else (e + c, o)
    return SuperDim(e, o)


def test_c08_line_bundle_cohomology_vs_enumeration():
    """Closed-form line-bundle tables match brute-force monomial counts."""
    for m in range(0, 4):
        for n in range(0, 4):
            for r in range(-6, 7):
                table = line_bundle_cohomology(m, n, r)
                assert table.rows[0] == _enumerate_sections(m, n, r), (m, n, r)
                for i in range(1, m):
                    assert table.rows[i] == ZERO, (m, n, r, i)
                if m >= 1:
                    assert table.rows[m] == _enumerate_local(m, n, r), (m, n, r)
    print("ACCEPTANCE 08 line-bundle-vs-enumeration: PASS")


def test_c09_super_bott_cross_validation():
    """Closed-form and direct-kernel tables agree cell by cell over Q."""
    spot = forms_cohomology_direct(1, 1, 1, 2, "Q")
    assert spot.rows[0] == SuperDim(2, 2)
    for m in range(0, 3):
        for n in range(0, 3):
            for p in range(0, 5):
                for r in range(-5, 6):
                    f = forms_cohomology_formula(m, n, p, r)
                    d = forms_cohomology_direct(m, n, p, r, "Q")
                    assert f.rows == d.rows, (
                        m, n, p, r,
                        [str(x) for x in f.rows],
                        [str(x) for x in d.rows],
                    )
    print("ACCEPTANCE 09 super-bott-cross-validation: PASS")


def _classical_bott(m, p, r):
    """The classical projective-space table, zero conditions included."""

    def c(a, k):
        if k < 0:
            return 0
        if k == 0:
            return 1
        return math.comb(a, k) if a >= k else 0

    rows = [ZERO] * (m + 1)
    if m == 0:
        rows[0] = SuperDim(1, 0) if p == 0 else ZERO
        return tuple(rows)
    if r == 0:
        if 0 <= p <= m:
            rows[p] = SuperDim(1, 0)
        return tuple(rows)
    if 0 <= p <= m and p < r:
        rows[0] = SuperDim(c(r - 1, p) * c(r + m - p, r), 0)
    if 0 <= p <= m and r < p - m:
        rows[m] = SuperDim(c(-r - 1, m - p) * c(-r + p, -r), 0)
    return tuple(rows)


def test_c10_classical_bott_reduction():
    """With no odd directions the closed form is the classical table."""
    for m in range(0, 4):
        for p in range(0, m + 1):
            for r in range(-5, 6):
                f = forms_cohomology_formula(m, 0, p, r)
                c = _classical_bott(m, p, r)
                assert f.rows == c, (m, p, r, [str(x) for x in f.rows], [str(x) for x in c])
    print("ACCEPTANCE 10 classical-bott-reduction: PASS")


def test_c11_koszul_derham_duality():
    """Odd-line slices match even-line slices after shift and parity flip."""
    for p in range(1, 3):
        for n in range(1, 6):
            K = build_koszul(0, p, n, n)
            D = build_derham(p, 0, n, n)
            for i in range(0, n + 1):
                hk = homology(K, "Z", -i)
                if n - i in D.basis_at:
                    hd = homology(D, "Z", n - i)
                    free, te, to = hd.free, hd.torsion_even, hd.torsion_odd
                else:
                    free, te, to = ZERO, (), ()
                if n % 2:
                    free = free.flip()
                    te, to = to, te
                assert (hk.free, hk.torsion_even, hk.torsion_odd) == (free, te, to), (p, n, i)
    print("ACCEPTANCE 11 koszul-derham-duality: PASS")


def test_c12_specialized_koszul():
    """Regular sequences are exact; the zero map leaves rank-one homology."""
    C = specialize_koszul(2, 0, (2, 3))
    for pos in C.positions:
        h = homology(C, "Z", pos)
        assert h.free == ZERO and not h.torsion_even and not h.torsion_odd, pos
    C0 = specialize_koszul(1, 0, (0,))
    assert homology(C0, "Z", 0).free == SuperDim(1, 0)
    assert homology(C0, "Z", -1).free == SuperDim(1, 0)
    print("ACCEPTANCE 12 specialized-koszul: PASS")
