import itertools

import pytest

from skos.bott import laurent_basis, local_basis
from skos.multilinear import (
    _BASES,
    FreeBasis,
    SuperDim,
    basis_wedge_sym,
    binom,
    iter_sym_monomials,
    iter_wedge_monomials,
    super_product,
    sym_rank,
    wedge_rank,
)
from skos.super_poly import GeneratorSet, SuperMonomial


def assert_product_of_sorted_factors(basis, wedges, coefs):
    """``basis`` has the factors ``sorted(wedges)`` and ``sorted(coefs)``, and
    its entries are their products, in ``SuperMonomial.sort_key`` order."""
    assert basis.wedges == tuple(sorted(set(wedges))) and len(basis.wedges) == len(wedges)
    assert basis.coefs == tuple(sorted(set(coefs))) and len(basis.coefs) == len(coefs)
    flat = sorted((SuperMonomial(*c, *w) for w in wedges for c in coefs), key=SuperMonomial.sort_key)
    assert list(basis.entries) == flat
    assert len(basis) == len(basis.wedges) * len(basis.coefs) == len(flat)
    assert basis.labels == tuple(map(str, flat))
    assert basis.parities == tuple(m.parity for m in flat)


class TestBasisEnumeration:
    def test_shape_2_1_degree_2(self):
        basis = basis_wedge_sym(2, 1, 2, 0)
        names = [str(m) for m in basis.entries]
        assert sorted(names) == sorted(["dx0*dx1", "dt1^2", "dx0*dt1", "dx1*dt1"])
        assert basis.dims() == SuperDim(2, 2)

    def test_unit_basis(self):
        basis = basis_wedge_sym(3, 2, 0, 0)
        assert [str(m) for m in basis.entries] == ["1"]

    def test_square_zero_truncation(self):
        assert len(basis_wedge_sym(1, 0, 2, 0)) == 0

    def test_order_is_deterministic_lexicographic(self):
        basis = basis_wedge_sym(2, 1, 2, 1)
        keys = [m.sort_key() for m in basis.entries]
        assert keys == sorted(keys)
        assert len(set(basis.entries)) == len(basis.entries)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            basis_wedge_sym(1, 1, -1, 0)

    def test_memos_match_entries_and_are_shared(self):
        """Labels and parities are the ``str`` and the parity of each entry,
        and a second call returns the very same basis from a bounded cache."""
        assert basis_wedge_sym.cache_info().maxsize == _BASES
        for a, b, p, q in itertools.product(range(5), range(5), range(6), range(6)):
            if a + b > 4 or p + q > 5:
                continue
            basis = basis_wedge_sym(a, b, p, q)
            assert basis.labels == tuple(map(str, basis.entries))
            assert basis.parities == tuple(m.parity for m in basis.entries)
            assert basis_wedge_sym(a, b, p, q) is basis
            assert basis.labels is basis.labels and basis.parities is basis.parities


class TestProductBases:
    """Every basis is the product of its two sorted factors, so nothing
    sorts the product itself."""

    def test_pieces(self):
        for a, b, p, q in itertools.product(range(6), range(6), range(6), range(6)):
            if a + b > 5 or p + q > 5:
                continue
            wedges, coefs = list(iter_wedge_monomials(a, b, p)), list(iter_sym_monomials(a, b, q))
            basis = basis_wedge_sym(a, b, p, q)
            if wedges and coefs:
                assert_product_of_sorted_factors(basis, wedges, coefs)
            else:
                assert len(basis) == 0 and basis.entries == basis.labels == basis.parities == ()

    def test_bott_models_over_the_bott_cross_cells(self):
        for m, n in ((2, 2), (0, 4), (3, 1), (1, 2)):
            for p in range(-1, 5):
                wedges = list(iter_wedge_monomials(m + 1, n, p)) if p >= 0 else []
                if m == 0:
                    coefs = [((), S) for k in range(n + 1) for _, S in iter_sym_monomials(0, n, k)] if p >= 0 else []
                    assert_product_of_sorted_factors(laurent_basis(n, p), wedges, coefs)
                    continue
                for r in range(-4, 5):
                    # x^(-alpha-1) t_S of internal degree r - p: |alpha| = |S| + p - r - (m + 1)
                    coefs = [
                        (alpha, S) for k in range(n + 1) for _, S in iter_sym_monomials(0, n, k)
                        for alpha, _ in iter_sym_monomials(m + 1, 0, k + p - r - (m + 1))
                    ] if p >= 0 else []
                    basis = local_basis(m, n, p, r)
                    if coefs:
                        assert_product_of_sorted_factors(basis, wedges, coefs)
                    else:
                        assert len(basis) == 0 and basis.entries == ()

    def test_empty_basis(self):
        basis = FreeBasis(GeneratorSet(2, 1))
        assert len(basis) == 0 and not basis
        assert basis.entries == basis.labels == basis.parities == ()
        assert basis.dims() == SuperDim(0, 0) and list(basis) == []
        for empty in (basis_wedge_sym(1, 0, 2, 0), basis_wedge_sym(0, 1, 0, 2), local_basis(1, 1, -1, 0),
                      laurent_basis(2, -1)):
            assert len(empty) == 0 and empty.entries == empty.labels == empty.parities == ()


class TestRankFormulas:
    def test_wedge_examples(self):
        assert wedge_rank(2, 2, 1) == SuperDim(2, 2)
        assert wedge_rank(0, 5, 3) == SuperDim(1, 0)
        assert wedge_rank(3, 2, 0) == SuperDim(0, 0)

    def test_sym_examples(self):
        assert sym_rank(2, 2, 1) == SuperDim(3, 2)
        assert sym_rank(0, 4, 4) == SuperDim(1, 0)
        assert sym_rank(3, 0, 2) == SuperDim(0, 0)

    def test_basis_matches_rank_product(self):
        for a, b, p, q in itertools.product(range(3), range(3), range(4), range(4)):
            dims = basis_wedge_sym(a, b, p, q).dims()
            assert dims == super_product(wedge_rank(p, a, b), sym_rank(q, a, b))

    def test_wedge_unbounded_iff_odd_generators(self):
        for p in range(12):
            assert wedge_rank(p, 2, 1).total > 0
        for p in range(3, 12):
            assert wedge_rank(p, 2, 0) == SuperDim(0, 0)

    def test_binomial_conventions(self):
        assert binom(-1, 0) == 1
        assert binom(-3, 2) == 0
        assert binom(2, 5) == 0
        assert binom(5, -1) == 0
        assert binom(5, 2) == 10


class TestSuperDim:
    def test_add_and_flip(self):
        assert SuperDim(1, 2) + SuperDim(3, 4) == SuperDim(4, 6)
        assert SuperDim(1, 2).flip() == SuperDim(2, 1)
        assert SuperDim(1, 2).flip(2) == SuperDim(1, 2)
        assert str(SuperDim(3, 0)) == "(3|0)"
