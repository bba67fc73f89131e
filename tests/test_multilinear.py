import itertools

import pytest

from skos.multilinear import (
    _BASES,
    SuperDim,
    basis_wedge_sym,
    binom,
    super_product,
    sym_rank,
    wedge_rank,
)


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
