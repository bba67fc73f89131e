import math
import subprocess
import sys
from collections import Counter

import pytest

from skos.bott import (
    CSV_HEADER,
    CohomologyTable,
    MethodDisagreementError,
    _koszul_cycles,
    bott_table,
    forms_cohomology_direct,
    forms_cohomology_formula,
    laurent_basis,
    laurent_matrix,
    line_bundle_cohomology,
    line_bundle_rank,
    local_basis,
    local_matrix,
    twisted_form_rank,
)
from skos.exact_linalg import ExactMatrix, rank
from skos.multilinear import SuperDim, sym_rank


def enumerate_sections(m, n, r):
    """Brute-force monomial count of the degree-r polynomial piece."""
    if m == 0:
        # Laurent in the single x: one monomial per theta subset
        e = o = 0
        for k in range(n + 1):
            c = math.comb(n, k)
            if k % 2:
                o += c
            else:
                e += c
        return SuperDim(e, o)
    e = o = 0
    for k in range(min(n, max(r, 0)) + 1):
        if r - k < 0:
            continue
        c = math.comb(n, k) * math.comb(m + r - k, m)
        if k % 2:
            o += c
        else:
            e += c
    return SuperDim(e, o)


def enumerate_local(m, n, r):
    """Brute-force count of x^(-alpha-1) t_T monomials of degree r."""
    e = o = 0
    for k in range(n + 1):
        total = k - r - (m + 1)
        if total < 0:
            continue
        c = math.comb(n, k) * math.comb(m + total, m)
        if k % 2:
            o += c
        else:
            e += c
    return SuperDim(e, o)


class TestLineBundleRank:
    def test_sections_match_symmetric_rank(self):
        for m in range(1, 4):
            for n in range(0, 4):
                for r in range(0, 7):
                    assert line_bundle_rank(r, "zero", m, n) == sym_rank(r, m + 1, n)

    def test_examples(self):
        assert line_bundle_rank(2, "zero", 1, 1) == SuperDim(3, 2)
        assert line_bundle_rank(-2, "top", 1, 0) == SuperDim(1, 0)
        assert line_bundle_rank(1, "top", 2, 0) == SuperDim(0, 0)

    def test_against_enumeration(self):
        for m in range(0, 4):
            for n in range(0, 4):
                for r in range(-6, 7):
                    assert line_bundle_rank(r, "zero", m, n) == enumerate_sections(m, n, r)
                    if m >= 1:
                        assert line_bundle_rank(r, "top", m, n) == enumerate_local(m, n, r)

    def test_bad_which(self):
        with pytest.raises(ValueError):
            line_bundle_rank(1, "middle", 1, 1)


class TestTwistedFormRank:
    def test_worked_super_example(self):
        assert twisted_form_rank(1, 2, "zero", 1, 1) == SuperDim(2, 2)

    def test_p_zero_collapses(self):
        for r in range(-4, 5):
            assert twisted_form_rank(0, r, "zero", 2, 1) == line_bundle_rank(r, "zero", 2, 1)

    def test_classical_plane_value(self):
        assert twisted_form_rank(1, 2, "zero", 2, 0) == SuperDim(3, 0)

    def test_twist_zero_bottom_row_where_the_raw_sum_is_negative(self):
        # the raw alternating sum is negative at (p, m, n) = (1, 1, 0); the
        # weight-0 complex has the constants only, at p = 0
        assert twisted_form_rank(1, 0, "zero", 1, 0) == SuperDim(0, 0)

    def test_twist_zero_bottom_row_matches_direct(self):
        # the direct path's bottom row for m >= 1, without its top-row models
        cells = [(m, n, p) for m in range(1, 4) for n in range(4) for p in range(m + n + 3)]
        assert len(cells) == 78
        for m, n, p in cells:
            assert twisted_form_rank(p, 0, "zero", m, n) == _koszul_cycles(m, n, p, 0, "Q")

    def test_twist_zero_top_row_counts_the_local_class(self):
        # the raw alternating sum is -1 at (m, n, p) = (1, 0, 3); the class
        # x0^-1 x1^-1 dx0 dx1 adds (-1)^(p-m) to the even count
        assert twisted_form_rank(1, 0, "top", 1, 0) == SuperDim(1, 0)
        assert twisted_form_rank(2, 0, "top", 1, 0) == SuperDim(0, 0)
        assert twisted_form_rank(3, 0, "top", 1, 0) == SuperDim(0, 0)


class TestLineBundleCohomology:
    def test_super_line(self):
        t = line_bundle_cohomology(1, 1, 2)
        assert t.rows == (SuperDim(3, 2), SuperDim(0, 0))

    def test_point_with_odd_directions(self):
        t = line_bundle_cohomology(0, 2, 0)
        assert t.rows == (SuperDim(2, 2),)

    def test_classical_serre(self):
        t = line_bundle_cohomology(1, 0, -2)
        assert t.rows == (SuperDim(0, 0), SuperDim(1, 0))

    def test_middle_rows_vanish(self):
        t = line_bundle_cohomology(3, 2, 4)
        assert t.rows[1] == t.rows[2] == SuperDim(0, 0)


class TestLocalModel:
    def test_basis_counts_match_closed_form(self):
        for m in range(1, 3):
            for n in range(0, 3):
                for r in range(-5, 3):
                    entries = local_basis(m, n, 0, r)
                    odd = sum(e.parity for e in entries)
                    assert SuperDim(len(entries) - odd, odd) == enumerate_local(m, n, r)

    def test_matrix_squares_to_zero(self):
        for m in range(1, 3):
            for n in range(0, 3):
                for r in range(-4, 2):
                    for p in range(2, 4):
                        a = local_matrix(m, n, r, p)
                        b = local_matrix(m, n, r, p - 1)
                        assert (b @ a).is_zero()
        for n in range(5):
            for p in range(2, 6):
                assert (laurent_matrix(n, p - 1) @ laurent_matrix(n, p)).is_zero()

    def test_truncation_kills_boundary_exponents(self):
        # x_i-multiplication annihilates exactly the monomials with x_i
        # exponent -1; at (m, n, r) = (1, 0, -2) two of the four wedge-1
        # monomials survive and both land on 1/(x0*x1)
        mat = local_matrix(1, 0, -2, 1)
        src = local_basis(1, 0, 1, -2)
        dst = local_basis(1, 0, 0, -2)
        assert len(src) == 4 and len(dst) == 1
        survivors = {
            col
            for col, mono in enumerate(src)
            if all(mono.x_pow[i] > 0 for i in mono.dxs)
        }
        assert {c for _, c, _ in mat.triplets()} == survivors
        assert len(survivors) == 2

    def test_laurent_basis_independent_of_twist(self):
        assert len(laurent_basis(2, 1)) == 4 * 3  # wedge choices times theta subsets


class TestLaurentMemo:
    def test_each_laurent_block_is_eliminated_once(self, monkeypatch):
        """The m = 0 top row reads the twist-independent Laurent matrix, whose
        parity blocks and their reductions stay with the cached matrix: a
        second twist eliminates nothing, and clearing the cache drops them."""
        import skos.bott
        import skos.exact_linalg

        for name in ("laurent_matrix", "laurent_basis"):
            getattr(skos.bott, name).cache_clear()
        first = [forms_cohomology_direct(0, 4, p, -4) for p in range(5)]

        def eliminate(M):
            raise AssertionError("a Laurent block was eliminated again")

        monkeypatch.setattr(skos.exact_linalg, "_unit_core", eliminate)
        for p in range(5):
            rows = forms_cohomology_direct(0, 4, p, 3).rows
            assert rows == first[p].rows == forms_cohomology_formula(0, 4, p, 3).rows
        laurent_matrix.cache_clear()
        with pytest.raises(AssertionError, match="eliminated again"):
            forms_cohomology_direct(0, 4, 2, 3)

    def test_each_cached_matrix_is_eliminated_once_per_base(self, monkeypatch):
        """Every kernel and homology of the direct path ranks its matrix
        whole, from the eliminations its memo keeps: over two bases and
        seven twists, each differential of a cached Koszul slice and each
        cached Laurent matrix is eliminated once at most per base field."""
        import skos.bott
        import skos.exact_linalg

        for name in ("_koszul", "laurent_matrix"):
            getattr(skos.bott, name).cache_clear()
        eliminated, held = Counter(), []
        unit_core, rank_mod_p = skos.exact_linalg._unit_core, skos.exact_linalg._rank_mod_p

        def counted_unit_core(M):
            eliminated[id(M), "Q"] += 1
            held.append(M)  # no id is reused while it is counted
            return unit_core(M)

        def counted_rank_mod_p(M, p):
            eliminated[id(M), p] += 1
            held.append(M)
            return rank_mod_p(M, p)

        monkeypatch.setattr(skos.exact_linalg, "_unit_core", counted_unit_core)
        monkeypatch.setattr(skos.exact_linalg, "_rank_mod_p", counted_rank_mod_p)
        for base in ("Q", "Fp:3"):
            for p in range(5):
                forms_cohomology_direct(2, 1, p, 3, base)
        for r in range(-3, 4):
            for p in range(5):
                forms_cohomology_direct(0, 3, p, r)
        assert {tag for _, tag in eliminated} == {"Q", 3}
        for cached in (skos.bott._koszul(2, 1, 3).diff_at.values(), [laurent_matrix(3, p) for p in range(5)]):
            counts = [eliminated[id(M), tag] for M in cached for tag in ("Q", 3)]
            assert max(counts) == 1, counts


class TestLocalMatrixCache:
    def test_sweeps_keep_one_local_matrix(self):
        """No cell of a table reads another cell's local matrix, so the cache
        keeps one: after the four benchmark sweeps it holds at most one
        matrix, and what it holds is under 1 MB (tracemalloc, measured by
        clearing it).  A repeated cell still finds its matrix."""
        import tracemalloc

        local_matrix.cache_clear()
        tracemalloc.start()
        try:
            for m, n in ((2, 2), (0, 4), (3, 1), (1, 2)):
                bott_table(m, n, 4, -4, 4, "both")
            held = tracemalloc.get_traced_memory()[0]
            assert local_matrix.cache_info().currsize <= 1
            local_matrix.cache_clear()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 2**20
        forms_cohomology_direct(1, 2, 2, -3)
        hits = local_matrix.cache_info().hits
        forms_cohomology_direct(1, 2, 2, -3)
        assert local_matrix.cache_info().hits == hits + 1


def test_slowest_cell_stays_within_its_budget():
    """forms_cohomology_direct(3, 3, 8, 0), the slowest cell of the Bott
    sweeps, in a child process: its rows are the formula's, it ends within
    30 s, and its peak RSS stays under 236 MB.  It takes 1.7-1.9 s and
    230 MB on a 2-core Xeon under Python 3.11 (239 MB when each matrix was
    cut into two parity blocks before it was ranked).  The probe reads the
    RSS of its own one child, so no other child of the test run counts."""
    cell = ("from skos.bott import forms_cohomology_direct, forms_cohomology_formula\n"
            "assert forms_cohomology_direct(3, 3, 8, 0).rows == forms_cohomology_formula(3, 3, 8, 0).rows\n")
    probe = ("import resource, subprocess, sys\n"
             f"subprocess.run([sys.executable, '-c', {cell!r}], check=True, timeout=30)\n"
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 236 * 1024  # kB


def local_image(m, n, p, base):
    """Image by parity of the r = 0 local contraction from wedge degree p to p - 1,
    from the ranks of its two parity blocks, cut out here entry by entry."""
    src, dst = local_basis(m, n, p, 0), local_basis(m, n, p - 1, 0)
    if not src or not dst:
        return SuperDim(0, 0)

    def places(parities):  # each index's place among the indices of its parity, and the two counts
        seen, at = [0, 0], []
        for q in parities:
            at.append(seen[q])
            seen[q] += 1
        return at, seen

    (row_at, rows), (col_at, cols) = places(dst.parities), places(src.parities)
    triplets = local_matrix(m, n, 0, p).triplets()
    blocks = [
        ExactMatrix.from_triplets(rows[q], cols[q], [
            (row_at[r], col_at[c], v) for r, c, v in triplets if dst.parities[r] == src.parities[c] == q])
        for q in (0, 1)
    ]
    return SuperDim(*(rank(block, base) for block in blocks))


class TestTwistZeroShift:
    """The direct top row at r = 0 is the local kernel shifted by one class."""

    @pytest.mark.parametrize("base", ["Q", "Fp:2", "Fp:3"])
    def test_local_model_has_one_even_class_at_wedge_degree_m_plus_one(self, base):
        cells = [(m, n, p) for m in range(1, 4) for n in range(5 - m) for p in range(m + n + 3)]
        assert len(cells) == 53
        for m, n, p in cells:
            kernel = local_basis(m, n, p, 0).dims() - local_image(m, n, p, base)
            expected = SuperDim(1, 0) if p == m + 1 else SuperDim(0, 0)
            assert kernel - local_image(m, n, p + 1, base) == expected, (m, n, p, base)

    def test_top_row_needs_no_wedge_degree_above_p(self, monkeypatch):
        import skos.bott as bott_mod

        asked = []

        def recording(m, n, r, p):
            asked.append((m, n, r, p))
            return original(m, n, r, p)

        original = bott_mod.local_matrix
        monkeypatch.setattr(bott_mod, "local_matrix", recording)
        for m, n, p in ((1, 1, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)):
            asked.clear()
            bott_mod.forms_cohomology_direct(m, n, p, 0)
            assert asked and max(q for *_, q in asked) <= p, (m, n, p, asked)


class TestDirectVsFormula:
    def test_worked_cell(self):
        d = forms_cohomology_direct(1, 1, 1, 2, "Q")
        assert d.rows[0] == SuperDim(2, 2)
        f = forms_cohomology_formula(1, 1, 1, 2)
        assert f.rows == d.rows

    def test_classical_top_row(self):
        d = forms_cohomology_direct(1, 0, 1, -3, "Q")
        # classical projective line: h^1 of the twisted cotangent sheaf
        # equals C(-r-1, m-p) * C(-r+p, -r) = C(2,0) * C(4,3) = 4
        assert d.rows == (SuperDim(0, 0), SuperDim(4, 0))

    def test_form_degree_zero_matches_line_bundle(self):
        for m in range(0, 3):
            for n in range(0, 3):
                for r in range(-3, 4):
                    d = forms_cohomology_direct(m, n, 0, r, "Q")
                    assert d.rows == line_bundle_cohomology(m, n, r).rows, (m, n, r)

    def test_cross_validation_sample(self):
        for m, n in ((0, 2), (1, 1), (2, 1)):
            for p in range(0, 4):
                for r in (-3, -1, 1, 2, 4):
                    f = forms_cohomology_formula(m, n, p, r)
                    d = forms_cohomology_direct(m, n, p, r, "Q")
                    assert f.rows == d.rows, (m, n, p, r)

    def test_cross_validation_beyond_two_directions(self):
        for m, n in ((3, 1), (1, 3), (3, 0), (0, 3)):
            for p in range(0, 4):
                for r in (-4, -1, 1, 2, 4):
                    f = forms_cohomology_formula(m, n, p, r)
                    d = forms_cohomology_direct(m, n, p, r, "Q")
                    assert f.rows == d.rows, (m, n, p, r)

    def test_twist_zero_kronecker(self):
        f = forms_cohomology_formula(2, 0, 1, 0)
        assert f.rows == (SuperDim(0, 0), SuperDim(1, 0), SuperDim(0, 0))
        d = forms_cohomology_direct(2, 0, 1, 0, "Q")
        assert d.rows == f.rows

    def test_twist_zero_super_top_row(self):
        # odd directions make the top row grow at twist zero
        f = forms_cohomology_formula(1, 2, 0, 0)
        d = forms_cohomology_direct(1, 2, 0, 0, "Q")
        assert f.rows == d.rows
        assert f.rows[1] == line_bundle_rank(0, "top", 1, 2)

    def test_vanishing_regime_for_nonzero_twist(self):
        # the top row dies whenever the local model is empty in the
        # relevant degree, i.e. when -m-1+n < r-p (nonzero twist)
        for m in range(1, 3):
            for n in range(0, 3):
                for p in range(0, 5):
                    for r in (-4, -2, -1, 1, 2, 4):
                        if -m - 1 + n < r - p:
                            d = forms_cohomology_direct(m, n, p, r, "Q")
                            assert d.rows[m] == SuperDim(0, 0), (m, n, p, r)

    def test_euler_characteristic_agrees_between_methods(self):
        for m in range(0, 3):
            for n in range(0, 3):
                for p in range(0, 4):
                    for r in (-3, -1, 1, 2, 3):
                        f = forms_cohomology_formula(m, n, p, r)
                        d = forms_cohomology_direct(m, n, p, r, "Q")
                        chi_f = sum((-1) ** i * (x.even - x.odd) for i, x in enumerate(f.rows))
                        chi_d = sum((-1) ** i * (x.even - x.odd) for i, x in enumerate(d.rows))
                        assert chi_f == chi_d, (m, n, p, r)

    def test_formula_path_builds_no_matrix(self, monkeypatch):
        import skos.bott as bott_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("the formula path reached the direct path")

        for name in ("local_matrix", "laurent_matrix", "local_basis", "laurent_basis",
                     "_koszul", "rank", "homology"):
            monkeypatch.setattr(bott_mod, name, forbidden)
        count = 0
        for m in range(5):
            for n in range(5):
                for p in range(7):
                    for r in range(-5, 6):
                        t = bott_mod.forms_cohomology_formula(m, n, p, r)
                        assert (t.method, len(t.rows)) == ("formula", m + 1)
                        count += 1
        assert count == 1925

    def test_direct_needs_a_field(self):
        with pytest.raises(ValueError, match="field"):
            forms_cohomology_direct(1, 1, 1, 2, "Z")

    def test_characteristic_p_is_computable(self):
        t = forms_cohomology_direct(1, 1, 1, 2, "Fp:3")
        assert all(d.even >= 0 and d.odd >= 0 for d in t.rows)


class TestBottTable:
    def test_agreeing_cell(self):
        tables = bott_table(1, 1, 1, 2, 2, "both")
        assert [t.p for t in tables] == [0, 1]
        assert tables[1].rows[0] == SuperDim(2, 2)
        assert tables[1].method == "both"

    def test_csv_shape(self):
        (table,) = bott_table(1, 1, 0, 2, 2, "both")[:1]
        assert CSV_HEADER == "m,n,p,r,i,even,odd,method"
        assert table.csv_rows()[0] == "1,1,0,2,0,3,2,both"

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty twist range"):
            bott_table(1, 1, 1, 3, 2, "both")
        with pytest.raises(ValueError, match="p_max must be nonnegative"):
            bott_table(1, 1, -1, 0, 0, "both")
        for p_min in (-1, 2):
            with pytest.raises(ValueError, match=rf"p_min must lie in 0\.\.p_max \(1\), got {p_min}"):
                bott_table(1, 1, 1, 0, 0, "both", p_min=p_min)

    def test_p_min_drops_only_the_lower_tables(self):
        full = bott_table(2, 1, 3, -2, 2, "both")
        assert bott_table(2, 1, 3, -2, 2, "both", p_min=2) == [t for t in full if t.p >= 2]

    def test_disagreement_raises(self, monkeypatch):
        import skos.bott as bott_mod

        def fake_formula(m, n, p, r):
            return CohomologyTable(m, n, p, r, "formula", (SuperDim(99, 0), SuperDim(0, 0)))

        monkeypatch.setattr(bott_mod, "forms_cohomology_formula", fake_formula)
        with pytest.raises(MethodDisagreementError):
            bott_mod.bott_table(1, 0, 0, 1, 1, "both")

    def test_method_validation(self):
        with pytest.raises(ValueError):
            bott_table(1, 1, 1, 1, 1, "magic")

    @pytest.mark.parametrize("method", ["formula", "both"])
    @pytest.mark.parametrize("base", ["Z", "Fp:3"])
    def test_base_other_than_q_needs_direct(self, method, base):
        with pytest.raises(ValueError, match="computes over Q only"):
            bott_table(1, 1, 1, 2, 2, method, base)

    def test_deterministic_order(self):
        tables = bott_table(1, 0, 1, -1, 1, "formula")
        assert [(t.p, t.r) for t in tables] == [
            (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1),
        ]

    def test_record_fields(self):
        (t,) = bott_table(1, 1, 0, 2, 2, "direct")
        rec = t.to_record()
        assert rec["method"] == "direct"
        assert rec["rows"][0] == {"i": 0, "even": 3, "odd": 2}
