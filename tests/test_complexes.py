import copy
import hashlib
import json
import subprocess
import sys
from collections import Counter, OrderedDict
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skos.bott import laurent_basis, laurent_matrix, local_basis, local_matrix
from skos.complexes import (
    GradedComplex,
    WindowError,
    _derivative_stencil,
    _dual_stencil,
    _polynomial_times,
    _wedge_times,
    assemble,
    build_berezinian,
    build_derham,
    build_koszul,
    contraction_stencil,
    specialize_koszul,
)
import skos.complexes
import skos.exact_linalg
from skos.exact_linalg import ExactMatrix, homology, rank, smith_normal_form
from skos.multilinear import FreeBasis, SuperDim, basis_wedge_sym, iter_sym_monomials, iter_wedge_monomials
from skos.super_poly import X, GeneratorSet, SuperMonomial, contract_euler, exterior_d


def stored(M):
    """The entries of ``M`` in the order its rows store them."""
    return [((r, c), v) for r, row in M._r.items() for c, v in row.items()]


def assert_row_layout(M):
    """``M`` stores only nonzero rows of nonzero ``int`` entries, each inside its shape."""
    for r, row in M._r.items():
        assert 0 <= r < M.rows and row, (M, r)
        assert all(0 <= c < M.cols and type(v) is int and v for c, v in row.items()), (M, r, row)


def envelope(total=4, weights=(0, 1, 2, 3, 4, 5)):
    for a in range(total + 1):
        for b in range(total + 1 - a):
            for n in weights:
                yield a, b, n


class TestKoszulBuilder:
    def test_rank_one_even_line(self):
        C = build_koszul(1, 0, 4)
        assert C.positions == (-1, 0)
        assert C.basis_at[-1].labels == ("x0^3*dx0",)
        assert C.diff_at[-1].to_dense() == [[1]]

    def test_odd_line_weight_three(self):
        C = build_koszul(0, 1, 3, 3)
        assert [C.dim(p) for p in C.positions] == [1, 1, 0, 0]
        assert C.basis_at[-3].labels == ("dt1^3",)
        assert C.basis_at[-2].labels == ("t1*dt1^2",)
        assert C.diff_at[-3].to_dense() == [[3]]

    def test_weight_zero(self):
        C = build_koszul(2, 2, 0)
        assert C.positions == (0,)
        assert C.basis_at[0].labels == ("1",)
        assert C.diff_at == {}

    def test_cap_truncates_window(self):
        C = build_koszul(0, 1, 5, 2)
        assert C.positions == (-2, -1, 0)
        with pytest.raises(WindowError):
            C.incoming(-2)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            build_koszul(1, 1, -1, 2)


class TestDeRhamBuilder:
    def test_rank_one_even_line(self):
        C = build_derham(1, 0, 5)
        assert C.positions == (0, 1)
        assert C.diff_at[0].to_dense() == [[5]]

    def test_weight_zero(self):
        assert build_derham(3, 1, 0).positions == (0,)

    def test_odd_line_weight_two(self):
        C = build_derham(0, 1, 2, 4)
        assert [C.dim(p) for p in C.positions] == [0, 1, 1]
        assert C.diff_at[1].to_dense() == [[1]]


def _piece_monomials(a, b, p, q):
    """The monomials of one piece in basis order, from the two enumerators alone."""
    return sorted((SuperMonomial(*c, *w) for w in iter_wedge_monomials(a, b, p) for c in iter_sym_monomials(a, b, q)),
                  key=SuperMonomial.sort_key)


def _crossings(M, src, dst):
    """The entries of ``M`` that join a row and a column of different parity."""
    return [(r, c, v) for r, c, v in M.triplets() if dst.parities[r] != src.parities[c]]


class TestStructuralInvariants:
    def test_squares_to_zero_and_parity_blocks(self):
        """Every differential squares to zero and keeps the weight, and no
        assembled matrix of any kind joins a row and a column of different
        parity: the parity blocks of each are ranked off one elimination."""
        for a, b, n in envelope():
            # position -p of the Koszul slice and position p of the De Rham slice carry the piece (p, n - p)
            for C, wedge in ((build_koszul(a, b, n, n), lambda pos: -pos), (build_derham(a, b, n, n), lambda pos: pos)):
                for pos in C.positions[:-1]:
                    if pos + 1 in C.diff_at:
                        assert (C.diff_at[pos + 1] @ C.diff_at[pos]).is_zero()
                    M = C.diff_at[pos]
                    src = _piece_monomials(a, b, wedge(pos), n - wedge(pos))
                    dst = _piece_monomials(a, b, wedge(pos + 1), n - wedge(pos + 1))
                    assert C.basis_at[pos].labels == tuple(map(str, src))
                    assert C.basis_at[pos + 1].labels == tuple(map(str, dst))
                    for (r, c, v) in M.triplets():
                        assert dst[r].parity == src[c].parity
                        assert dst[r].weight == src[c].weight
        complexes = [build_berezinian(a, b, n, 4) for a, b, n in envelope()]
        complexes += [specialize_koszul(a, b, tuple(range(2, a + 2)) + (0,) * b, 4)
                      for a, b, _ in envelope(weights=(0,))]
        matrices = [(C.diff_at[pos], C.basis_at[pos], C.basis_at[pos + 1]) for C in complexes for pos in C.diff_at]
        matrices += [(local_matrix(m, n, r, p), local_basis(m, n, p, r), local_basis(m, n, p - 1, r))
                     for m in range(1, 4) for n in range(4 - m) for r in (-3, 0, 3) for p in range(5)]
        matrices += [(laurent_matrix(n, p), laurent_basis(n, p), laurent_basis(n, p - 1))
                     for n in range(5) for p in range(6)]
        assert sum(M.nnz for M, _, _ in matrices) > 10**4
        for M, src, dst in matrices:
            assert not _crossings(M, src, dst), M

    def test_cartan_identity_as_matrices(self):
        for a, b, n in envelope():
            K = build_koszul(a, b, n, n)
            D = build_derham(a, b, n, n)
            for lam in range(0, n + 1):
                if -lam not in K.basis_at or lam not in D.basis_at:
                    continue
                dim = K.dim(-lam)
                assert dim == D.dim(lam)
                term1 = (
                    K.diff_at[-(lam + 1)] @ D.diff_at[lam]
                    if lam in D.diff_at and -(lam + 1) in K.diff_at
                    else ExactMatrix(dim, dim)
                )
                term2 = (
                    D.diff_at[lam - 1] @ K.diff_at[-lam]
                    if -lam in K.diff_at and lam - 1 in D.diff_at
                    else ExactMatrix(dim, dim)
                )
                assert term1 + term2 == ExactMatrix.identity(dim, n)

    def test_euler_characteristic_per_parity(self):
        """On each fully materialized complex, sum (-1)^pos dim_pos equals
        sum (-1)^pos of the free rank over Q at pos, parity by parity."""
        finite = 0
        for a, b, n in envelope():
            complexes = [build_koszul(a, b, n), build_derham(a, b, n), build_berezinian(a, b, n, 4)]
            if n == 0:
                complexes.append(specialize_koszul(a, b, (2,) * a + (0,) * b))
            for C in complexes:
                if C.support_min is None or C.support_max is None:
                    continue
                if C.positions != tuple(range(C.support_min, C.support_max + 1)):
                    continue
                finite += 1
                chi_basis = chi_homology = SuperDim(0, 0)
                for pos in C.positions:
                    sign = -1 if pos & 1 else 1
                    dims, free = C.basis_at[pos].dims(), homology(C, "Q", pos).free
                    chi_basis += SuperDim(sign * dims.even, sign * dims.odd)
                    chi_homology += SuperDim(sign * free.even, sign * free.odd)
                assert chi_basis == chi_homology, (C.kind, a, b, n)
        assert finite == 239

    def test_koszul_derham_duality_shift(self):
        # odd-line slices match even-line slices after reversing positions
        # by the weight and flipping parity by weight mod 2
        for p in (1, 2):
            for n in range(1, 6):
                K = build_koszul(0, p, n, n)
                D = build_derham(p, 0, n, n)
                for i in range(0, n + 1):
                    hk = homology(K, "Z", -i)
                    if n - i in D.basis_at:
                        hd = homology(D, "Z", n - i)
                        free, te, to = hd.free, hd.torsion_even, hd.torsion_odd
                    else:
                        free, te, to = SuperDim(0, 0), (), ()
                    if n % 2:
                        free = free.flip()
                        te, to = to, te
                    assert (hk.free, hk.torsion_even, hk.torsion_odd) == (free, te, to)


class TestBerezinianBuilder:
    def test_even_line_unit_coefficient(self):
        for n in range(0, 4):
            B = build_berezinian(1, 0, n, 1)
            assert [B.dim(p) for p in B.positions] == [1, 1]
            assert B.diff_at[0].to_dense() == [[1]]

    def test_odd_line_multiplicity_pattern(self):
        # the k-th slice below zero carries the single matrix [k+1] (up to sign)
        for k in range(0, 4):
            B = build_berezinian(0, 1, -k, 6)
            mats = [M.to_dense() for M in B.diff_at.values() if M.nnz]
            assert [[[abs(v) for v in row] for row in M] for M in mats] == [[[k + 1]]]

    def test_cap_zero(self):
        B = build_berezinian(2, 1, 1, 0)
        assert B.positions == (0,)
        assert B.diff_at == {}

    def test_differentials_compose_to_zero(self):
        for p in range(3):
            for q in range(3):
                for n in range(-4, 5):
                    B = build_berezinian(p, q, n, 6)
                    for pos in B.positions[:-1]:
                        if pos + 1 in B.diff_at:
                            assert (B.diff_at[pos + 1] @ B.diff_at[pos]).is_zero()

    def test_window_edge_raises(self):
        B = build_berezinian(1, 1, 0, 3)
        with pytest.raises(WindowError):
            B.outgoing(3)
        # bounded support: edges are fine
        B = build_berezinian(1, 0, 0, 5)
        assert B.outgoing(1).rows == 0

    def test_concentration_at_higher_ranks(self):
        # the dual-complex sign convention has to survive wedge degrees
        # beyond the small acceptance envelope
        for p, q in [(3, 0), (0, 3), (3, 1), (1, 3)]:
            for n in (q - p, q - p + 1, 0):
                B = build_berezinian(p, q, n, 6)
                for pos in B.positions:
                    try:
                        h = homology(B, "Q", pos)
                    except WindowError:
                        continue
                    expected = SuperDim(0, 0)
                    if pos == p and n == q - p:
                        expected = SuperDim(1, 0) if q % 2 == 0 else SuperDim(0, 1)
                    assert h.free == expected, (p, q, n, pos)

    def test_integral_concentration_at_dual_position(self):
        # over Z the dual complex has exactly one free rank-one cohomology
        # at position p, parity q, supported at weight q - p, no torsion
        for p in range(3):
            for q in range(3):
                for n in range(-4, 5):
                    B = build_berezinian(p, q, n, 6)
                    if p not in B.basis_at or (p + 1 not in B.basis_at and B.support_max is None):
                        continue
                    h = homology(B, "Z", p)
                    expected = SuperDim(0, 0)
                    if n == q - p:
                        expected = SuperDim(1, 0) if q % 2 == 0 else SuperDim(0, 1)
                    assert h.free == expected, (p, q, n, str(h.free))
                    assert not h.torsion_even and not h.torsion_odd, (p, q, n)


class TestSpecializedKoszul:
    def test_regular_sequence_is_exact(self):
        C = specialize_koszul(2, 0, (2, 3))
        assert C.diff_at[-1].to_dense() == [[2, 3]]
        assert sorted(v for _, _, v in C.diff_at[-2].triplets()) == [-3, 2]
        for pos in C.positions:
            h = homology(C, "Z", pos)
            assert h.free == SuperDim(0, 0) and not h.torsion_even and not h.torsion_odd

    def test_zero_specialization(self):
        C = specialize_koszul(1, 0, (0,))
        assert homology(C, "Z", 0).free == SuperDim(1, 0)
        assert homology(C, "Z", -1).free == SuperDim(1, 0)

    def test_unit_specialization_over_q(self):
        C = specialize_koszul(1, 0, (5,))
        assert homology(C, "Q", 0).free == SuperDim(0, 0)
        assert homology(C, "Q", -1).free == SuperDim(0, 0)

    def test_odd_slots_must_vanish(self):
        with pytest.raises(ValueError, match="odd slot"):
            specialize_koszul(1, 1, (2, 1))
        specialize_koszul(1, 1, (2, 0), 3)  # fine

    def test_squares_to_zero_with_odd_directions(self):
        C = specialize_koszul(2, 1, (3, 5, 0), 4)
        for pos in C.positions[:-1]:
            if pos + 1 in C.diff_at:
                assert (C.diff_at[pos + 1] @ C.diff_at[pos]).is_zero()


class TestWindow:
    """Every builder takes its positions from ``_complex``: the support of the
    full complex, cut at ``cap`` positions from 0 only when b > 0."""

    CAPS = (0, 1, 2, 3, None)

    @staticmethod
    def old_positions(kind, a, b, n, cap):
        """The window each builder once computed on its own; only the
        Berezinian one differs, as it cut even a finite (a|0) slice at cap."""
        if kind == "koszul":
            return range(-min(n, a if b == 0 else n if cap is None else cap), 1)
        if kind == "derham":
            return range(0, min(n, a if b == 0 else n if cap is None else cap) + 1)
        if kind == "specialized":
            return range(-a if b == 0 else -(a + b if cap is None else cap), 1)
        top = skos.complexes._SUPPORT["berezinian"](a, b, n)[1]
        if b > 0 and cap is not None:
            top = cap if top is None else min(cap, top)
        return range(0, top + 1)

    def test_every_kind_over_the_envelope(self):
        for cap in self.CAPS:
            for a, b, n in envelope():
                assert build_koszul(a, b, n, cap).positions == tuple(self.old_positions("koszul", a, b, n, cap))
                assert build_derham(a, b, n, cap).positions == tuple(self.old_positions("derham", a, b, n, cap))
            for a, b, _ in envelope(weights=(0,)):
                C = specialize_koszul(a, b, (1,) * a + (0,) * b, cap)
                assert C.positions == tuple(self.old_positions("specialized", a, b, None, cap))
            for a, b, n in envelope(weights=range(-5, 6)):
                if cap is None and a and b:
                    continue  # unbounded above: a cap is required
                C = build_berezinian(a, b, n, cap)
                assert C.positions == tuple(self.old_positions("berezinian", a, b, n, cap)), (a, b, n, cap)

    def test_finite_berezinian_slice_is_whole(self):
        """A rank (a|0) slice is finite, so a cap below a no longer hides the
        class of the Berezinian at position a and weight -a."""
        B = build_berezinian(4, 0, -4, 1)
        assert B.positions == (0, 1, 2, 3, 4)
        h = homology(B, "Z", 4)
        assert h.free == SuperDim(1, 0) and not h.torsion_even and not h.torsion_odd

    @pytest.mark.parametrize("build, message", [
        (lambda: build_koszul(-1, 0, 1), "rank components must be nonnegative"),
        (lambda: build_koszul(1, 0, -1), "weight must be nonnegative"),
        (lambda: build_derham(1, 1, 1, -1), "cap must be nonnegative"),
        (lambda: build_berezinian(0, -1, 0, 2), "rank components must be nonnegative"),
        (lambda: specialize_koszul(-1, 0, ()), "rank components must be nonnegative"),
        (lambda: specialize_koszul(1, 1, (1, 0), -1), "cap must be nonnegative"),
        (lambda: specialize_koszul(1, 0, ()), "omega must have 1 entries, got 0"),
        # each of these once built a complex that its own record refused
        (lambda: build_koszul(1, 1, True), "weight must be an integer"),
        (lambda: build_koszul(True, 1, 2), "rank components must be integers"),
        (lambda: specialize_koszul(1, 0, (True,)), "even slots of omega must be integers"),
        (lambda: specialize_koszul(1, 1, (2, 0.0)), "odd slots of omega must be integers"),
        # and this one failed inside ``range``
        (lambda: build_berezinian(1, 1, -1, 2.0), "cap must be an integer"),
        # these failed with a raw TypeError: the weight was compared before its type was checked
        pytest.param(lambda: build_koszul(1, 1, "2"), "weight must be an integer", id="koszul-str-weight"),
        pytest.param(lambda: build_derham(1, 1, None), "weight must be an integer", id="derham-no-weight"),
        pytest.param(lambda: build_berezinian(1, 1, None, 2), "weight must be an integer",
                     id="berezinian-no-weight"),
        pytest.param(lambda: build_berezinian(0, 1, None, 2), "weight must be an integer",
                     id="berezinian-0-1-no-weight"),
        pytest.param(lambda: build_derham(1, 0, -1), "weight must be nonnegative", id="derham-negative-weight"),
    ])
    def test_each_bad_argument_is_named(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_unbounded_berezinian_slice_needs_a_cap(self):
        with pytest.raises(ValueError, match="unbounded above: a cap is required"):
            build_berezinian(1, 1, 0, None)
        assert build_berezinian(1, 0, 0, None).positions == (0, 1)  # finite: whole without a cap


class TestAssemble:
    """``assemble`` reads both bases through their factors.  A stencil term
    whose target is not in the target basis raises: dropping it would
    assemble a wrong matrix without a word."""

    @pytest.mark.parametrize("a, b, p, q", [(2, 1, 2, 1), (1, 2, 2, 0), (0, 2, 2, 1), (3, 0, 2, 0)])
    def test_contraction_target_outside_dst_raises(self, a, b, p, q):
        src, stencil = basis_wedge_sym(a, b, p, q), contraction_stencil(GeneratorSet(a, b), p, contract_euler)
        M = assemble(src, basis_wedge_sym(a, b, p - 1, q + 1), stencil, _polynomial_times)
        assert M.nnz
        for wrong in ((p - 1, q), (p - 2, q + 1)):  # the symmetric degree, then the wedge degree
            with pytest.raises(KeyError):
                assemble(src, basis_wedge_sym(a, b, *wrong), stencil, _polynomial_times)
        with pytest.raises(KeyError):
            assemble(src, FreeBasis(src.gens), stencil, _polynomial_times)

    @pytest.mark.parametrize("a, b, p, q", [(1, 1, 1, 2), (2, 1, 0, 2), (0, 2, 1, 1)])
    def test_derivative_target_outside_dst_raises(self, a, b, p, q):
        src, stencil = basis_wedge_sym(a, b, p, q), _derivative_stencil(GeneratorSet(a, b), q, exterior_d)
        M = assemble(src, basis_wedge_sym(a, b, p + 1, q - 1), stencil, _wedge_times)
        assert M.nnz
        for wrong in ((p + 1, q), (p, q - 1)):  # the symmetric degree, then the wedge degree
            with pytest.raises(KeyError):
                assemble(src, basis_wedge_sym(a, b, *wrong), stencil, _wedge_times)

    def test_empty_source_gives_zero_matrix(self):
        dst = basis_wedge_sym(2, 1, 1, 1)
        M = assemble(FreeBasis(dst.gens), dst, contraction_stencil(dst.gens, 2, contract_euler), _polynomial_times)
        assert (M.rows, M.cols, M.nnz) == (len(dst), 0, 0)

    @pytest.mark.parametrize("stencil, times, src, dst", [
        (contraction_stencil(GeneratorSet(2, 1), 0, contract_euler), _polynomial_times, (0, 2), (0, 3)),
        (_derivative_stencil(GeneratorSet(2, 1), 0, exterior_d), _wedge_times, (0, 2), (0, 3)),
        (_derivative_stencil(GeneratorSet(2, 1), 0, exterior_d), _wedge_times, (2, 0), (3, 0)),
    ])
    def test_stencil_with_no_term_gives_zero_matrix(self, stencil, times, src, dst):
        """A stencil whose keys all map to no term (the contraction of a
        wedge-degree-0 part, d of a constant) writes no entry."""
        assert not any(stencil.values())
        src, dst = basis_wedge_sym(2, 1, *src), basis_wedge_sym(2, 1, *dst)
        M = assemble(src, dst, stencil, times)
        assert (M.rows, M.cols, M.nnz) == (len(dst), len(src), 0) and len(src) and len(dst)


    def test_builders_write_entries_without_from_triplets(self, monkeypatch):
        """Every builder writes its matrix entries once, straight into the
        matrix, and stores no zero: a zero omega slot writes no entry.
        ``from_triplets`` is for outside input."""
        import skos.bott

        def refuse(*args):
            raise AssertionError("an assembled matrix went through from_triplets")

        monkeypatch.setattr(ExactMatrix, "from_triplets", classmethod(refuse))
        for name in ("local_matrix", "laurent_matrix"):
            getattr(skos.bott, name).cache_clear()
        mats = []
        for C in (build_koszul(2, 2, 3), build_derham(2, 1, 3), build_berezinian(2, 2, 1, 3),
                  specialize_koszul(3, 1, (0, 2, 0, 0)), GradedComplex.from_record(build_koszul(1, 2, 2).to_record())):
            mats += C.diff_at.values()
        mats += [skos.bott.local_matrix(2, 1, r, p) for r in (-2, 0, 3) for p in range(4)]
        mats += [skos.bott.laurent_matrix(3, p) for p in range(4)]
        assert sum(M.nnz for M in mats) > 0
        for M in mats:
            assert_row_layout(M)

    def test_every_matrix_is_stored_as_nonzero_rows(self):
        """Builders, records, ``from_triplets`` (entries that cancel included)
        and products store no empty row, no zero and no key outside the shape."""
        import skos.bott

        mats = []
        for C in (build_koszul(2, 2, 3), build_derham(2, 1, 3), build_berezinian(2, 2, 1, 3),
                  specialize_koszul(3, 1, (0, 2, 0, 0)), GradedComplex.from_record(build_koszul(1, 2, 2).to_record())):
            mats += C.diff_at.values()
        mats += [skos.bott.local_matrix(2, 1, r, p) for r in (-2, 0, 3) for p in range(4)]
        mats += [skos.bott.laurent_matrix(3, p) for p in range(4)]
        cancel = ExactMatrix.from_triplets(3, 3, [(0, 0, 2), (1, 1, 1), (0, 0, -2), (2, 0, 3), (1, 1, -1), (0, 2, 0)])
        assert stored(cancel) == [((2, 0), 3)]
        mats.append(cancel)
        mats += [A @ B for A, B in zip(mats, mats[1:]) if A.cols == B.rows]
        left, right = ExactMatrix.from_dense([[1, 1], [1, 2]]), ExactMatrix.from_dense([[1, 0], [-1, 0]])
        mats += [left @ right, left @ ExactMatrix(2, 2)]
        assert stored(mats[-2]) == [((1, 0), -1)] and mats[-1].is_zero()
        for M in mats:
            assert_row_layout(M)

    def test_each_stencil_key_names_each_part_once(self):
        """``assemble`` writes each term as one entry and sums nothing, which
        holds as the terms of one key name distinct parts: every key of every
        contraction, derivative and dual stencil with a + b <= 6 and degree
        <= 6 is checked.  A zero omega slot writes no entry either: each
        specialized matrix is ``from_triplets`` on its nonzero terms."""
        keys = 0
        for a in range(7):
            for b in range(7 - a):
                gens = GeneratorSet(a, b)
                for degree in range(7):
                    contraction = contraction_stencil.__wrapped__(gens, degree, contract_euler)
                    derivative = _derivative_stencil.__wrapped__(gens, degree, exterior_d)
                    for stencil in (contraction, derivative, _dual_stencil(contraction)):
                        for key, terms in stencil.items():
                            parts = [part for _, _, part in terms]
                            assert len(set(parts)) == len(parts), (a, b, degree, key, terms)
                            keys += 1
        assert keys == 13006
        omega = (0, 2, 0, 0)
        C = specialize_koszul(3, 1, omega)
        for pos, M in C.diff_at.items():
            row_of = {w: i for i, w in enumerate(C.basis_at[pos + 1].wedges)}
            triplets = [(row_of[w], col, c * omega[gen[1]])
                        for col, u in enumerate(C.basis_at[pos].wedges)
                        for c, gen, w in contraction_stencil(C.gens, -pos, contract_euler)[u]
                        if gen[0] == X and omega[gen[1]]]
            assert stored(M) == stored(ExactMatrix.from_triplets(M.rows, M.cols, triplets)), pos
        assert sum(M.nnz for M in C.diff_at.values()) > 0


class TestSerialization:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_koszul(2, 1, 3, 3),
            lambda: build_derham(1, 2, 2, 2),
            lambda: build_berezinian(1, 1, 1, 4),
            lambda: specialize_koszul(2, 1, (2, 3, 0), 3),
            lambda: build_berezinian(0, 2, -2, 4),
        ],
    )
    def test_record_round_trip(self, make):
        C = make()
        rec = json.loads(json.dumps(C.to_record(), sort_keys=True))
        C2 = GradedComplex.from_record(rec)
        assert C2.kind == C.kind and C2.gens == C.gens and C2.weight == C.weight
        assert C2.positions == C.positions
        assert C2.support_min == C.support_min and C2.support_max == C.support_max
        for pos in C.positions:
            assert C2.basis_at[pos] == C.basis_at[pos]
        assert C2.diff_at == C.diff_at
        assert C2.omega == C.omega

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            GradedComplex.from_record({"format": "nope"})

    @staticmethod
    def _record():
        """Weight-2 Koszul slice of rank (2|1); position 0 holds x0*x1."""
        return json.loads(json.dumps(build_koszul(2, 1, 2).to_record()))

    def test_non_canonical_monomial_rejected(self):
        rec = self._record()
        assert "x0*x1" in rec["bases"][2]
        rec["bases"][2] = ["x1*x0" if s == "x0*x1" else s for s in rec["bases"][2]]
        with pytest.raises(ValueError, match="basis at position 0 "):
            GradedComplex.from_record(rec)

    def test_reversed_basis_rejected(self):
        rec = self._record()
        rec["bases"][1].reverse()
        with pytest.raises(ValueError, match="basis at position -1 "):
            GradedComplex.from_record(rec)

    @pytest.mark.parametrize(
        "key,value,named",
        [
            ("kind", "cech", "field 'kind'"),
            ("kind", None, "no 'kind' key"),
            ("weight", None, "no 'weight' key"),
            ("weight", 2.0, "field 'weight'"),
            ("rank", [2, True], "field 'rank'"),
            ("direction", 1, "field 'direction'"),
            ("positions", [-2, 0, -1], "field 'positions'"),
            ("support", [-2], "field 'support'"),
            ("omega", [1, 2, 0], "field 'omega'"),
            ("bases", [], "field 'bases'"),
            ("positions", [0, 10**12], "field 'positions'"),  # rejected without counting to 10**12
        ],
    )
    def test_malformed_field_rejected(self, key, value, named):
        """``value`` None deletes the key."""
        rec = self._record()
        if value is None:
            del rec[key]
        else:
            rec[key] = value
        with pytest.raises(ValueError, match=named):
            GradedComplex.from_record(rec)

    def test_nonzero_odd_omega_slot_rejected(self):
        """``specialize_koszul`` refuses such an omega, so a record that
        holds one is refused too, naming the field, before ``killed_by``
        and the homology read it."""
        rec = specialize_koszul(1, 1, (0, 0), 3).to_record()
        assert GradedComplex.from_record(rec).killed_by == 0
        rec["omega"] = [0, 3]
        with pytest.raises(ValueError, match=r"field 'omega' must be 2 integers, the last 1 zero, got \[0, 3\]"):
            GradedComplex.from_record(rec)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["entries"].reverse(),  # unsorted
            lambda d: d["entries"].append(list(d["entries"][-1])),  # repeated
            lambda d: d["entries"].append([d["rows"] - 1, d["cols"] - 1, 0]),  # explicit zero
            lambda d: d["entries"].append([d["rows"], 0, 1]),  # outside the shape
            lambda d: d["entries"][0].__setitem__(2, 2.0),  # not an integer
            lambda d: d.__setitem__("rows", d["rows"] + 1),  # not the basis size
        ],
    )
    def test_malformed_differential_rejected(self, edit):
        rec = self._record()
        edit(rec["differentials"][1])
        with pytest.raises(ValueError, match="differential from position -1 "):
            GradedComplex.from_record(rec)

    @pytest.mark.parametrize(
        "change",
        [{"rank": [40, 40], "weight": 60}, {"weight": 2 * 10**9, "positions": [-(10**9) - 2, -(10**9) - 1, -(10**9)]}],
    )
    def test_basis_size_checked_before_enumeration(self, change):
        """A short record that claims a huge piece fails on the count alone, at once."""
        rec = self._record()
        rec.update(change)
        pos = rec["positions"][0]
        with pytest.raises(ValueError, match=rf"basis at position {pos} must have \d{{10,}} entries"):
            GradedComplex.from_record(rec)

    def test_basis_count_forms_no_huge_binomial(self):
        """Rank (10**6|0) at weight 10**6 has C(2*10**6 - 1, 10**6) monomials
        at position 0, a number of two million bits.  The count stops past
        2**256 and never forms it."""
        rec = self._record()
        rec.update({"rank": [10**6, 0], "weight": 10**6, "positions": [0], "bases": [[]], "differentials": []})
        script = ("import json, sys\nfrom skos.complexes import GradedComplex\n"
                  "try:\n    GradedComplex.from_record(json.load(sys.stdin))\n"
                  "except ValueError as e:\n    print(e)\n")
        proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(rec),
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "complex record basis at position 0 must have more than 2**256 entries\n"

    def test_altered_last_label_rejected_on_a_warm_cache(self):
        """The read-back compares each record string with the cached labels:
        a basis already built and written is no reason to trust the record."""
        rec = self._record()
        warm = basis_wedge_sym.cache_info().misses
        GradedComplex.from_record(json.loads(json.dumps(rec)))
        assert basis_wedge_sym.cache_info().misses == warm
        last = rec["bases"][-1]
        assert last[-1] != "x0^9"
        last[-1] = "x0^9"
        with pytest.raises(ValueError, match="basis at position 0 is not the koszul basis"):
            GradedComplex.from_record(rec)
        assert basis_wedge_sym.cache_info().misses == warm

    @pytest.mark.parametrize(
        "change",
        [
            {"rank": [40, 0], "weight": 10**9, "positions": [-41],
             "support": [-40, 0]},  # no wedge part, a huge coefficient degree
            {"kind": "derham", "direction": 1, "rank": [0, 5], "weight": 10**9 + 6, "positions": [10**9],
             "support": [0, 10**9 + 6]},  # no coefficient part, a huge wedge degree
        ],
    )
    def test_empty_piece_far_out_read_back_at_once(self, change):
        rec = self._record()
        rec.update(change, bases=[[]], differentials=[])
        C = GradedComplex.from_record(rec)
        assert C.dim(rec["positions"][0]) == 0 and C.to_record() == rec

    @pytest.mark.parametrize("kind", ["koszul", "derham", "berezinian", "specialized"])
    def test_entry_across_parities_rejected(self, kind):
        """Every differential is an even map, and the ranks of its parity
        blocks are counted off its pivot rows, so a record entry that joins
        a row and a column of different parity is refused by name."""
        C = {"koszul": build_koszul(2, 1, 2), "derham": build_derham(1, 2, 2),
             "berezinian": build_berezinian(1, 1, 1, 3), "specialized": specialize_koszul(2, 1, (2, 3, 0), 3)}[kind]
        rec = json.loads(json.dumps(C.to_record()))
        d = next(d for d in rec["differentials"] if d["entries"])
        pos = d["from"]
        src, dst = C.basis_at[pos], C.basis_at[pos + 1]
        r, c = next((r, c) for r in range(d["rows"]) for c in range(d["cols"])
                    if dst.parities[r] != src.parities[c])
        d["entries"] = sorted([[r, c, 5]] + [e for e in d["entries"] if e[:2] != [r, c]])
        with pytest.raises(ValueError, match=rf"differential from position {pos} has entry \[{r}, {c}, 5\], "
                                             "which joins a row and a column of different parity"):
            GradedComplex.from_record(rec)

    @pytest.mark.parametrize(
        "make,forged,base,pos",
        [
            (lambda: build_berezinian(2, 1, 0, 3), [0, 3], "Q", 3),
            (lambda: specialize_koszul(2, 1, (2, 3, 0), 3), [-3, 0], "Z", -3),
            (lambda: build_koszul(1, 1, 5, 1), [-1, 0], "Fp:5", -1),
        ],
    )
    def test_forged_support_rejected(self, make, forged, base, pos):
        """``homology`` reads zeros past a window's edge only inside the
        support, so a record whose support ends at the window would report
        the edge's homology where the true answer is a WindowError."""
        C = make()
        with pytest.raises(WindowError):
            homology(C, base, pos)
        rec = json.loads(json.dumps(C.to_record()))
        rec["support"] = forged
        with pytest.raises(ValueError, match="field 'support'"):
            GradedComplex.from_record(rec)

    def test_every_builder_record_round_trips(self):
        for a, b, n in envelope(3, range(4)):
            omega = tuple(range(1, a + 1)) + (0,) * b
            for C in (build_koszul(a, b, n, 2), build_derham(a, b, n, 2), build_berezinian(a, b, n - 2, 2),
                      specialize_koszul(a, b, omega, 2)):
                rec = C.to_record()
                assert GradedComplex.from_record(json.loads(json.dumps(rec))).to_record() == rec

    def test_short_finite_berezinian_record_still_reads(self):
        """A (7|0) slice once stopped at its cap 6; such a record, positions
        0..6 of the support 0..7, is still a window of the slice."""
        rec = build_berezinian(7, 0, -7, 6).to_record()
        assert rec["positions"] == list(range(8)) and rec["support"] == [0, 7]
        rec.update(positions=rec["positions"][:-1], bases=rec["bases"][:-1],
                   differentials=rec["differentials"][:-1])
        digest = hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()
        assert digest == "0c6ba0a0510a77fabafe7a08349ac937336040fc84cfe49b75e2f959945b3c91"
        C = GradedComplex.from_record(rec)
        assert C.positions == tuple(range(7)) and C.to_record() == rec

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object, got list"):
            GradedComplex.from_record([])


BASES = ("Z", "Q", "Fp:2", "Fp:3")


def sweep(C):
    """The homology of ``C`` at each position over each base, "window" where
    the position's neighbor lies outside the window."""
    out = {}
    for pos in C.positions:
        for base in BASES:
            try:
                out[pos, base] = homology(C, base, pos)
            except WindowError:
                out[pos, base] = "window"
    return out


def cold_sweep(build):
    """``sweep(build())`` on an empty table of named memos; the table in use comes back after."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(skos.exact_linalg, "_named", OrderedDict())
        return sweep(build())


def forgeable(C):
    """A position whose differential, with one entry changed, breaks d∘d with the
    next one, and that entry: in a row the next differential reads, and not -1."""
    pos = next(p for p in C.diff_at if p + 1 in C.diff_at and C.diff_at[p].nnz and C.diff_at[p + 1].nnz)
    read = {c for _, c in C.diff_at[pos + 1]._d}
    return pos, next(rc for rc in C.diff_at[pos]._d if rc[0] in read and C.diff_at[pos]._d[rc] != -1)


ONE_OF_EACH_KIND = {
    "koszul": partial(build_koszul, 1, 2, 3),
    "derham": partial(build_derham, 2, 1, 3),
    "berezinian": partial(build_berezinian, 1, 1, 2, 3),
    "specialized": partial(specialize_koszul, 3, 1, (2, -1, 3, 0), 3),
}


class TestRebuiltSlices:
    """Every build of a slice names its differentials alike, so a rebuild
    shares the memos of the first build (``skos.exact_linalg.named``)."""

    @pytest.mark.parametrize("kind", sorted(ONE_OF_EACH_KIND))
    def test_rebuild_reduces_nothing_again(self, kind, monkeypatch, cold_table):
        """A rebuilt slice is not assembled, not copied into a unit core, not
        ranked mod p and not checked for d∘d = 0 again, over Z, Q and F_p,
        and answers alike."""
        calls = Counter()

        def counted(name, f):
            def wrapper(M, *args):
                calls[name] += bool(M.nnz)  # an edge's entry-free matrix is made anew per call
                return f(M, *args)
            return wrapper

        def counted_assemble(*args):
            calls["assemble"] += 1
            return assemble(*args)

        for name in ("_unit_core", "_rank_mod_p"):
            monkeypatch.setattr(skos.exact_linalg, name, counted(name, getattr(skos.exact_linalg, name)))
        monkeypatch.setattr(ExactMatrix, "__matmul__", counted("@", ExactMatrix.__matmul__))
        monkeypatch.setattr(skos.complexes, "assemble", counted_assemble)
        first = sweep(ONE_OF_EACH_KIND[kind]())
        assert all(calls[name] for name in ("assemble", "_unit_core", "_rank_mod_p", "@"))
        calls.clear()
        built = skos.exact_linalg.named_info()
        C = ONE_OF_EACH_KIND[kind]()
        assert sweep(C) == first
        assert not any(calls.values()), calls
        now = skos.exact_linalg.named_info()
        assert (now["hits"] - built["hits"], now["misses"] - built["misses"]) == (len(C.diff_at), 0)

    @pytest.mark.parametrize("kind", sorted(ONE_OF_EACH_KIND))
    def test_revived_matrix_is_the_first_build(self, kind, cold_table):
        """A rebuilt differential equals the first build's, rows and each
        row's entries in the same order, shares its memo and has rows of its
        own: no row dict is shared between the two builds."""
        first, again = ONE_OF_EACH_KIND[kind](), ONE_OF_EACH_KIND[kind]()
        assert any(M.nnz for M in first.diff_at.values())
        for pos, M in first.diff_at.items():
            R = again.diff_at[pos]
            assert R == M and stored(R) == stored(M) and R._memo is M._memo
            assert R is not M and R._r is not M._r
            assert not {id(row) for row in R._r.values()} & {id(row) for row in M._r.values()}

    def test_huge_omega_slot_rebuilds_exactly(self, cold_table):
        """A specialized slice whose ω has slots past 64 bits is revived with
        those entries exact, and answers as a cold build, over every base:
        over Z its homology at 0 is Z/gcd(ω)."""
        big = 2**70 + 1
        build = partial(specialize_koszul, 2, 1, (big, 3 * big, 0), 3)
        cold = cold_sweep(build)
        first, again = build(), build()
        assert {v for M in first.diff_at.values() for _, v in stored(M)} >= {big, 3 * big}
        assert all(stored(again.diff_at[pos]) == stored(M) for pos, M in first.diff_at.items())
        assert sweep(again) == cold and cold[0, "Z"].torsion_even == (big,)

    def test_forging_a_first_or_a_revived_build_leaves_the_next_rebuild_clean(self, cold_table):
        """A write through ``_d`` into the first build of a slice, and then
        into a revived build, forges that matrix alone: each next rebuild
        holds the clean rows and answers as a cold build."""
        build = partial(build_koszul, 1, 1, 3, 3)
        clean = cold_sweep(build)
        before = skos.exact_linalg.named_info()["misses"]
        for _ in ("first", "revived"):
            C = build()
            pos, entry = forgeable(C)
            rows = stored(C.diff_at[pos])
            C.diff_at[pos]._d[entry] += 1
            with pytest.raises(ArithmeticError, match="not a complex"):
                homology(C, "Q", pos + 1)
            rebuilt = build()
            assert stored(rebuilt.diff_at[pos]) == rows and sweep(rebuilt) == clean
        assert skos.exact_linalg.named_info()["misses"] - before == len(C.diff_at)

    @pytest.mark.parametrize("builds", [
        [partial(specialize_koszul, 2, 1, omega, 2) for omega in ((1, 2, 0), (2, 2, 0), (0, 3, 0), (0, 0, 0))],
        [partial(build, 1, 1, 3, 3) for build in (build_koszul, build_derham, build_berezinian)],
        [partial(build_koszul, 1, 1, n, 2) for n in (1, 2, 3)],
    ], ids=["omega", "kind", "weight"])
    def test_slices_that_differ_in_one_field_answer_as_cold_builds(self, builds, cold_table):
        """Slices one after another that differ only in omega, in kind (at one
        rank, weight and window) or in weight answer as each does alone.  The
        De Rham and Berezinian slices share their positions, so their names
        differ in kind and operator only."""
        cold = [cold_sweep(build) for build in builds]
        assert [sweep(build()) for build in builds] == cold
        assert len({str(answers) for answers in cold}) == len(builds)

    def test_patched_operator_meets_no_other_operators_memo(self, monkeypatch, cold_table):
        """The operator is part of each name: a slice built while
        ``contract_euler`` is patched to twice itself is ranked from its own
        rows, not from the memo of the slice built before the patch."""
        positions = list(build_koszul(1, 1, 3, 3).diff_at)
        ranked = [rank(build_koszul(1, 1, 3, 3).diff_at[pos], "Fp:2") for pos in positions]
        monkeypatch.setattr(skos.complexes, "contract_euler", lambda f: contract_euler(f).scale(2))
        assert any(ranked)
        assert [rank(build_koszul(1, 1, 3, 3).diff_at[pos], "Fp:2") for pos in positions] == [0] * len(positions)

    def test_forged_matrix_leaves_the_shared_memo(self, cold_table):
        """A write through ``_d`` gives the forged matrix a memo of its own:
        what it reduces is its own, and a later build of the slice answers
        as the clean one did, at every position and base."""
        clean = sweep(build_koszul(1, 1, 3, 3))
        C = build_koszul(1, 1, 3, 3)
        pos, entry = forgeable(C)
        M = C.diff_at[pos]
        M._d[entry] += 1
        with pytest.raises(ArithmeticError, match="not a complex"):
            homology(C, "Q", pos + 1)
        assert [rank(M, base) for base in BASES] == [2, 2, 1, 1] and smith_normal_form(M) == ((1, 6), 2)
        assert sweep(build_koszul(1, 1, 3, 3)) == clean

    def test_changed_record_is_not_a_complex_after_a_clean_check(self, cold_table):
        """A record with one entry changed reads back as a complex whose
        d∘d is checked afresh, though a clean build of the slice was checked."""
        C = build_koszul(1, 1, 3, 3)
        sweep(C)
        pos, entry = forgeable(C)
        record = C.to_record()
        (d,) = (d for d in record["differentials"] if d["from"] == pos)
        (t,) = (t for t in d["entries"] if tuple(t[:2]) == entry)
        t[2] += 1
        with pytest.raises(ArithmeticError, match=f"not a complex at position {pos + 1}"):
            homology(GradedComplex.from_record(record), "Q", pos + 1)


# One valid record of each kind; the fuzz below mutates one of them at one place.
VALID_RECORDS = [
    json.loads(json.dumps(C.to_record()))
    for C in (build_koszul(2, 1, 2), build_derham(1, 2, 2, 2), build_berezinian(1, 1, 1, 3),
              specialize_koszul(2, 1, (2, 3, 0), 3))
]

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([10**12, -(10**12), 2**64]),
    st.floats(), st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_record_raises_only_value_error(data):
    """Replace, delete or append at one place of a valid record, at any depth."""
    rec = copy.deepcopy(data.draw(st.sampled_from(VALID_RECORDS)))
    node = rec
    while True:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["replace", "delete", "append"]))
        if action == "replace":
            node[key] = data.draw(JUNK)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.text(max_size=3))] = data.draw(JUNK)
        else:
            node.append(data.draw(JUNK))
        break
    try:
        GradedComplex.from_record(rec)
    except ValueError:
        pass
