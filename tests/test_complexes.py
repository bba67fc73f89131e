import copy
import json
import subprocess
import sys

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
    _terms,
    _wedge_times,
    assemble,
    build_berezinian,
    build_derham,
    build_koszul,
    contraction_stencil,
    specialize_koszul,
)
from skos.exact_linalg import ExactMatrix, homology
from skos.multilinear import FreeBasis, SuperDim, basis_wedge_sym
from skos.super_poly import X, GeneratorSet, contract_euler, exterior_d


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
        assert [str(m) for m in C.basis_at[-1].entries] == ["x0^3*dx0"]
        assert C.diff_at[-1].to_dense() == [[1]]

    def test_odd_line_weight_three(self):
        C = build_koszul(0, 1, 3, 3)
        assert [C.dim(p) for p in C.positions] == [1, 1, 0, 0]
        assert [str(m) for m in C.basis_at[-3].entries] == ["dt1^3"]
        assert [str(m) for m in C.basis_at[-2].entries] == ["t1*dt1^2"]
        assert C.diff_at[-3].to_dense() == [[3]]

    def test_weight_zero(self):
        C = build_koszul(2, 2, 0)
        assert C.positions == (0,)
        assert [str(m) for m in C.basis_at[0].entries] == ["1"]
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


def _crossings(M, src, dst):
    """The entries of ``M`` that join a row and a column of different parity."""
    return [(r, c, v) for r, c, v in M.triplets() if dst.parities[r] != src.parities[c]]


class TestStructuralInvariants:
    def test_squares_to_zero_and_parity_blocks(self):
        """Every differential squares to zero and keeps the weight, and no
        assembled matrix of any kind joins a row and a column of different
        parity: the parity blocks of each are ranked off one elimination."""
        for a, b, n in envelope():
            for C in (build_koszul(a, b, n, n), build_derham(a, b, n, n)):
                for pos in C.positions[:-1]:
                    if pos + 1 in C.diff_at:
                        assert (C.diff_at[pos + 1] @ C.diff_at[pos]).is_zero()
                    M = C.diff_at[pos]
                    src = C.basis_at[pos].entries
                    dst = C.basis_at[pos + 1].entries
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
                    else ExactMatrix.zeros(dim, dim)
                )
                term2 = (
                    D.diff_at[lam - 1] @ K.diff_at[-lam]
                    if -lam in K.diff_at and lam - 1 in D.diff_at
                    else ExactMatrix.zeros(dim, dim)
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
        mats += [left @ right, left @ ExactMatrix.zeros(2, 2)]
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
                            parts = [part for _, _, part in _terms(terms)]
                            assert len(set(parts)) == len(parts), (a, b, degree, key, terms)
                            keys += 1
        assert keys == 13006
        omega = (0, 2, 0, 0)
        C = specialize_koszul(3, 1, omega)
        for pos, M in C.diff_at.items():
            row_of = {w: i for i, w in enumerate(C.basis_at[pos + 1].wedges)}
            triplets = [(row_of[w], col, c * omega[gen[1]])
                        for col, u in enumerate(C.basis_at[pos].wedges)
                        for c, gen, w in _terms(contraction_stencil(C.gens, -pos, contract_euler)[u])
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

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object, got list"):
            GradedComplex.from_record([])


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
