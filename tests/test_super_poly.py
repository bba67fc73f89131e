import itertools

import pytest
from hypothesis import given, settings, strategies as st

from skos.super_poly import (
    DTHETA,
    DX,
    THETA,
    X,
    GeneratorSet,
    SuperMonomial,
    SuperPolynomial,
    contract_euler,
    exterior_d,
    mul,
    normalize,
    parse_poly,
    weight_component,
)

G21 = GeneratorSet(2, 2)


def poly(text, gens=G21):
    return parse_poly(gens, text)


class TestNormalize:
    def test_odd_odd_swap(self):
        assert normalize(G21, [("t", 2), ("t", 1)]) == poly("-t1*t2")

    def test_odd_square_is_zero(self):
        assert normalize(G21, [("t", 1), ("t", 1)]).is_zero()
        assert normalize(G21, [("dx", 0), ("dx", 0)]).is_zero()

    def test_theta_dtheta_commutation(self):
        # sign rule (-1)**(pq + st) with (p,q) = (1,0), (s,t) = (1,1)
        assert normalize(G21, [("t", 1), ("dt", 1)]) == poly("t1*dt1")
        assert normalize(G21, [("dt", 1), ("t", 1)]) == poly("-t1*dt1")

    def test_even_generators_commute_freely(self):
        assert normalize(G21, [("x", 1), ("x", 0)]) == poly("x0*x1")
        assert normalize(G21, [("dt", 1), ("dt", 1)]) == poly("dt1^2")

    def test_idempotent_on_canonical_words(self):
        canonical = [("x", 0, 2), ("t", 1), ("dx", 0), ("dt", 2, 3)]
        p = normalize(G21, canonical, -3)
        ((mono, coeff),) = p.terms.items()
        assert mono == ((2, 0), (1,), (0,), (0, 3))  # the word is mono's own
        again = normalize(G21, canonical, coeff)
        assert again == p

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            normalize(G21, [("x", 2)])
        with pytest.raises(ValueError, match="out of range"):
            normalize(G21, [("t", 0)])
        with pytest.raises(ValueError, match="out of range"):
            normalize(G21, [("dt", 3)])

    def test_exponent_must_be_an_integer(self):
        with pytest.raises(TypeError):
            normalize(G21, [("x", 0, 2.5)])
        # an index check still runs on every factor, after a square-zero one too
        with pytest.raises(ValueError, match="out of range"):
            normalize(G21, [("t", 1, 2), ("x", 2)])


def all_singles(gens):
    a, b = gens
    singles = [("x", i) for i in range(a)] + [("t", j) for j in range(1, b + 1)]
    singles += [("dx", i) for i in range(a)] + [("dt", j) for j in range(1, b + 1)]
    return singles


def single_poly(gens, s):
    return normalize(gens, [s])


class TestProductLaw:
    def test_mul_cancels_cross_terms(self):
        f = poly("x0 + t1")
        g = poly("x0 + -1*t1")
        # oracle: term-by-term normalization of concatenated words
        direct = (
            normalize(G21, [("x", 0), ("x", 0)])
            + normalize(G21, [("x", 0), ("t", 1)], -1)
            + normalize(G21, [("t", 1), ("x", 0)])
            + normalize(G21, [("t", 1), ("t", 1)], -1)
        )
        assert mul(f, g) == direct == poly("x0^2")

    def test_dtheta_powers_survive(self):
        assert mul(poly("dt1"), poly("dt1")) == poly("dt1^2")

    def test_unit(self):
        f = poly("x0*t1 + 2*dx1*dt2^2")
        assert mul(SuperPolynomial.one(G21), f) == f

    def test_mismatched_generator_sets(self):
        with pytest.raises(ValueError, match="mismatched"):
            mul(poly("x0"), parse_poly(GeneratorSet(1, 0), "x0"))

    def test_associativity_exhaustive_three_letter_words(self):
        gens = GeneratorSet(1, 1)
        singles = all_singles(gens)
        for u, v, w in itertools.product(singles, repeat=3):
            fu, fv, fw = (single_poly(gens, s) for s in (u, v, w))
            assert mul(mul(fu, fv), fw) == mul(fu, mul(fv, fw))

    def test_supercommutativity_sign(self):
        gens = GeneratorSet(2, 2)
        singles = all_singles(gens)
        words = [list(c) for c in itertools.combinations(singles, 2)]
        words += [[s, s] for s in singles]
        for wa, wb in itertools.product(words, repeat=2):
            f = normalize(gens, wa)
            g = normalize(gens, wb)
            if f.is_zero() or g.is_zero():
                continue
            ((mf, _),) = f.terms.items()
            ((mg, _),) = g.terms.items()
            sign = (-1) ** (
                mf.wedge_degree * mg.wedge_degree + mf.parity * mg.parity
            )
            assert mul(f, g) == mul(g, f).scale(sign)

    def test_weight_and_wedge_degree_additive(self):
        f = poly("x0*dt1^2")
        g = poly("t2*dx1")
        ((m, _),) = mul(f, g).terms.items()
        assert m.weight == 3 + 2
        assert m.wedge_degree == 2 + 1


class TestDerivations:
    def test_contraction_of_dx(self):
        assert contract_euler(poly("dx0")) == poly("x0")

    def test_contraction_of_dtheta_powers(self):
        for p in range(1, 5):
            got = contract_euler(parse_poly(G21, f"dt1^{p}"))
            assert got == parse_poly(G21, f"t1*dt1^{p-1}").scale(p)

    def test_contraction_leibniz_on_two_form(self):
        assert contract_euler(poly("dx0*dx1")) == poly("x0*dx1 + -x1*dx0")

    def test_d_of_coordinate(self):
        assert exterior_d(poly("x0")) == poly("dx0")

    def test_d_of_theta_pair(self):
        # oracle: Leibniz by hand, then normalize each word
        oracle = normalize(G21, [("dt", 1), ("t", 2)]) + normalize(G21, [("t", 1), ("dt", 2)])
        assert exterior_d(poly("t1*t2")) == oracle == poly("-t2*dt1 + t1*dt2")

    def test_cartan_on_example(self):
        f = poly("x0*t1")
        lhs = contract_euler(exterior_d(f)) + exterior_d(contract_euler(f))
        assert lhs == f.scale(2)

    def _corpus(self, gens):
        singles = all_singles(gens)
        monos = []
        for k in range(0, 4):
            for word in itertools.combinations_with_replacement(singles, k):
                p = normalize(gens, list(word))
                if not p.is_zero():
                    monos.append(p)
        return monos

    def test_nilpotency_and_cartan_exhaustive(self):
        gens = GeneratorSet(1, 2)
        for f in self._corpus(gens):
            assert contract_euler(contract_euler(f)).is_zero()
            assert exterior_d(exterior_d(f)).is_zero()
            ((m, _),) = f.terms.items()
            lhs = contract_euler(exterior_d(f)) + exterior_d(contract_euler(f))
            assert lhs == f.scale(m.weight)

    def test_contraction_is_antiderivation_for_products(self):
        gens = GeneratorSet(1, 1)
        corpus = self._corpus(gens)
        for f, g in itertools.product(corpus[:40], corpus[:40]):
            ((mf, _),) = f.terms.items()
            sign = (-1) ** mf.wedge_degree
            lhs = contract_euler(mul(f, g))
            rhs = mul(contract_euler(f), g) + mul(f, contract_euler(g)).scale(sign)
            assert lhs == rhs


class TestWeightComponent:
    def test_picks_matching_terms(self):
        f = poly("x0^2 + x0*dx0")
        assert weight_component(f, 2, 1) == poly("x0*dx0")
        assert weight_component(f, 2, 0) == poly("x0^2")

    def test_zero_input(self):
        assert weight_component(SuperPolynomial.zero(G21), 3, 1).is_zero()

    def test_bigraded_projection(self):
        f = poly("t1*dt1^2")
        assert weight_component(f, 3, 2) == f
        assert weight_component(f, 3, 1).is_zero()

    def test_components_reassemble(self):
        f = poly("x0^2 + x0*dx0 + t1*dt1^2 + 5*dt2")
        total = SuperPolynomial.zero(G21)
        for m in f.terms:
            total = total + weight_component(f, m.weight, m.wedge_degree)
        assert total == f


class TestTextFormat:
    def test_round_trip_with_reordering(self):
        p = parse_poly(G21, "dt2^3*t1*-3*dx0*x0^2")
        assert str(p) == "-3*x0^2*t1*dx0*dt2^3"
        assert parse_poly(G21, str(p)) == p

    def test_zero(self):
        assert str(SuperPolynomial.zero(G21)) == "0"
        assert parse_poly(G21, "0").is_zero()

    def test_rational_coefficients(self):
        p = parse_poly(G21, "1/2*x0 + -5/3*t1")
        assert parse_poly(G21, str(p)) == p

    @pytest.mark.parametrize("text, want", [
        ("3*-x0", "-3*x0"),
        ("-x0*-2", "2*x0"),
        ("- 3*x0", "-3*x0"),
        ("1/2*t1 + 2*- t2*x1", "1/2*t1 + -2*x1*t2"),
        ("--3/2*t1", ValueError("cannot parse factor '-3/2'")),
        ("- -x0", ValueError("cannot parse factor '-x0'")),
        ("-+3", ValueError("empty factor in term '-'")),
        ("x0*+2", ValueError("empty factor in term 'x0*'")),
        ("x0**2", ValueError("empty factor in term 'x0**2'")),
        ("x0 + + x1", ValueError("empty term in 'x0 + + x1'")),
    ])
    def test_each_factor_takes_at_most_one_sign(self, text, want):
        """A factor is an unsigned number or a generator power after at most
        one ``-``; an empty factor or term is refused with its text quoted."""
        if isinstance(want, ValueError):
            with pytest.raises(ValueError) as e:
                parse_poly(G21, text)
            assert str(e.value) == str(want)
        else:
            f = parse_poly(G21, text)
            assert str(f) == want and parse_poly(G21, want) == f

    @pytest.mark.parametrize("text, factor", [
        ("٣*x0", "٣"),  # Arabic-Indic digits, which str.isdecimal accepts
        ("x٠", "x٠"),
        ("t١*dt٢^٣", "t١"),
        ("٣/٤*x1", "٣/٤"),
    ])
    def test_digits_are_ascii(self, text, factor):
        """Numbers, indices and exponents are read in ASCII digits only."""
        with pytest.raises(ValueError) as e:
            parse_poly(G21, text)
        assert str(e.value) == f"cannot parse factor {factor!r}"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly(G21, "x0**2")
        with pytest.raises(ValueError):
            parse_poly(G21, "y3")
        with pytest.raises(ValueError):
            parse_poly(G21, "2/0*x0")
        with pytest.raises(ValueError):
            parse_poly(G21, "x0*2/0")


# Texts for the parse_poly fuzz: generator tokens of G21 for the most part,
# and some out of its range, rational coefficients (zero denominators too),
# joined by "*" and "+" for the most part, and by blanks, a "-" or a stray
# character otherwise.
_GENERATOR_TOKENS = [f"{k}{i}" for k, n in (("x", 4), ("t", 4), ("dx", 3), ("dt", 4)) for i in range(n)]
_GENERATOR_TOKENS += ["x0", "x1", "t1", "t2", "dx0", "dx1", "dt1", "dt2"] * 3
_FACTOR_TEXTS = st.one_of(
    st.builds("{}{}".format, st.sampled_from(_GENERATOR_TOKENS), st.sampled_from(["", "", "^0", "^1", "^2", "^3"])),
    st.builds("{}/{}".format, st.integers(-5, 5), st.integers(0, 4)),
    st.integers(-5, 5).map(str),
)
_JOINS = st.sampled_from(["*"] * 20 + [" * "] * 4 + ["+"] * 10 + [" + "] * 4 + ["+-"] * 2
                         + ["++", "**", "", " ", "-", "/", "^", "y", "(", ".", "\t", "\u0663"])


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(st.tuples(_FACTOR_TEXTS, _JOINS), max_size=8))
def test_parse_poly_returns_a_polynomial_that_round_trips_or_raises_value_error(minus, pieces):
    """Any text gives a ``SuperPolynomial`` or a ``ValueError``, nothing else,
    and a polynomial read back from its own ``str`` is the same polynomial."""
    text = "-" * minus + "".join(factor + join for factor, join in pieces)[:-1]
    try:
        f = parse_poly(G21, text)
    except ValueError:
        return
    assert isinstance(f, SuperPolynomial) and f.gens == G21
    assert parse_poly(G21, str(f)) == f


word_strategy = st.lists(
    st.tuples(st.sampled_from(["x", "t", "dx", "dt"]), st.integers(0, 1), st.integers(1, 2)),
    max_size=5,
)


def _fix(word):
    return [(k, i + 1 if k in ("t", "dt") else i, e) for k, i, e in word]


@settings(max_examples=200, deadline=None)
@given(word_strategy)
def test_normalize_squares_to_zero_or_single_term(word):
    p = normalize(GeneratorSet(2, 2), _fix(word))
    assert len(p.terms) <= 1
    for mono, coeff in p.terms.items():
        assert coeff in (1, -1)


@settings(max_examples=150, deadline=None)
@given(word_strategy, word_strategy)
def test_product_respects_gradings(wa, wb):
    gens = GeneratorSet(2, 2)
    f = normalize(gens, _fix(wa))
    g = normalize(gens, _fix(wb))
    prod = mul(f, g)
    if f.is_zero() or g.is_zero():
        assert prod.is_zero()
        return
    ((mf, _),) = f.terms.items()
    ((mg, _),) = g.terms.items()
    for m in prod.terms:
        assert m.weight == mf.weight + mg.weight
        assert m.wedge_degree == mf.wedge_degree + mg.wedge_degree
        assert m.parity == (mf.parity + mg.parity) % 2


@settings(max_examples=150, deadline=None)
@given(word_strategy)
def test_operators_nilpotent_random(word):
    f = normalize(GeneratorSet(2, 2), _fix(word))
    assert contract_euler(contract_euler(f)).is_zero()
    assert exterior_d(exterior_d(f)).is_zero()


# Reference oracle for the closed-form product and the antiderivations:
# a word sorter that insertion-sorts single generators (kind, index) and
# takes the sign of each swap from the rule (-1)^(pq + su), so it shares
# no sign formula with the code under test.
def _singles(mono):
    """The single generators of a canonical monomial, in canonical order."""
    word = [(X, i) for i, e in enumerate(mono.x_pow) for _ in range(e)]
    word += [(THETA, j) for j in mono.thetas] + [(DX, i) for i in mono.dxs]
    return word + [(DTHETA, j) for j, e in enumerate(mono.dt_pow, 1) for _ in range(e)]


def _swap_sign(u, v):
    wedge, parity = (u[0] >> 1) & (v[0] >> 1), (u[0] & 1) & (v[0] & 1)
    return -1 if wedge ^ parity else 1


def _normalize_singles(gens, singles):
    """``(sign, monomial)`` of a word, or ``None`` when it vanishes."""
    a, b = gens
    arr = list(singles)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j] < arr[j - 1]:
            sign *= _swap_sign(arr[j - 1], arr[j])
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    x_pow, dt_pow, thetas, dxs = [0] * a, [0] * b, [], []
    for n, (kind, idx) in enumerate(arr):
        if n and arr[n - 1] == (kind, idx) and kind in (THETA, DX):
            return None  # t_j or dx_i squared
        if kind == X:
            x_pow[idx] += 1
        elif kind == THETA:
            thetas.append(idx)
        elif kind == DX:
            dxs.append(idx)
        else:
            dt_pow[idx - 1] += 1
    return sign, SuperMonomial(tuple(x_pow), tuple(thetas), tuple(dxs), tuple(dt_pow))


# The word-normalizing antiderivation that contract_euler and exterior_d
# replaced: it writes out each term as a word of single generators,
# replaces one generator and sorts the word back into canonical form.
def _antiderivation(f, source_kinds, shift):
    out = {}
    for mono, coeff in f.terms.items():
        singles = _singles(mono)
        prefix_wedge = 0
        for j, (kind, idx) in enumerate(singles):
            if kind in source_kinds:
                word = singles[:j] + [(kind + shift, idx)] + singles[j + 1:]
                res = _normalize_singles(f.gens, word)
                if res is not None:
                    sign, new_mono = res
                    if prefix_wedge & 1:
                        sign = -sign
                    out[new_mono] = out.get(new_mono, 0) + sign * coeff
            prefix_wedge += kind >> 1  # wedge degree of the generator
    return SuperPolynomial(f.gens, out)


ORACLES = [(contract_euler, lambda f: _antiderivation(f, (DX, DTHETA), -2)),
           (exterior_d, lambda f: _antiderivation(f, (X, THETA), 2))]


@st.composite
def polynomials(draw, gens=None):
    """Random polynomials over (a|b), a + b <= 5, or over ``gens``, with
    integer and rational coefficients."""
    if gens is None:
        a = draw(st.integers(0, 5))
        b = draw(st.integers(0, 5 - a))
    else:
        a, b = gens
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = SuperMonomial(
            tuple(draw(st.lists(st.integers(0, 3), min_size=a, max_size=a))),
            tuple(sorted(draw(st.sets(st.integers(1, b))))) if b else (),
            tuple(sorted(draw(st.sets(st.integers(0, a - 1))))) if a else (),
            tuple(draw(st.lists(st.integers(0, 3), min_size=b, max_size=b))),
        )
        terms[mono] = draw(st.integers(-4, 4) | st.fractions(max_denominator=3))
    return SuperPolynomial(GeneratorSet(a, b), terms)


@settings(max_examples=400, deadline=None)
@given(polynomials())
def test_antiderivations_match_word_normalizing_oracle(f):
    for op, oracle in ORACLES:
        got, want = op(f), oracle(f)
        assert got == want
        # the same terms in the same order, so every stencil keeps its order
        assert list(got.terms.items()) == list(want.terms.items())
    assert contract_euler(contract_euler(f)).is_zero()
    assert exterior_d(exterior_d(f)).is_zero()
    cartan = contract_euler(exterior_d(f)) + exterior_d(contract_euler(f))
    assert cartan == SuperPolynomial(f.gens, {m: m.weight * c for m, c in f.terms.items()})


@st.composite
def oracle_words(draw):
    """Random words of single generators over (3|2), in any order, with
    repeated t and dx factors and exponents."""
    factors = st.one_of(
        st.tuples(st.sampled_from([X, DX]), st.integers(0, 2)),
        st.tuples(st.sampled_from([THETA, DTHETA]), st.integers(1, 2)),
    )
    return draw(st.lists(st.tuples(factors, st.integers(1, 3)), max_size=8))


@settings(max_examples=400, deadline=None)
@given(oracle_words(), st.integers(-3, 3))
def test_normalize_matches_word_sorting_oracle(word, coeff):
    gens = GeneratorSet(3, 2)
    got = normalize(gens, [(kind, idx, exp) for (kind, idx), exp in word], coeff)
    res = _normalize_singles(gens, [factor for factor, exp in word for _ in range(exp)])
    want = SuperPolynomial.zero(gens) if res is None else SuperPolynomial.single(gens, res[1], res[0] * coeff)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_matches_word_sorting_oracle(data):
    f = data.draw(polynomials())
    g = data.draw(polynomials(f.gens))
    want = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            res = _normalize_singles(f.gens, _singles(m1) + _singles(m2))
            if res is not None:
                want[res[1]] = want.get(res[1], 0) + res[0] * c1 * c2
    want = SuperPolynomial(f.gens, want)
    got = mul(f, g)
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())


def test_stencils_are_built_without_sorting_words(monkeypatch, cold_table):
    """Every stencil of a Koszul, De Rham and Berezinian slice comes from the
    closed-form antiderivation signs, with no word and no product of
    monomials: a monomial product while building one raises here.  The
    table of named differentials starts empty, as a slice found there asks
    for no stencil."""
    from skos import complexes, super_poly

    def refuse(*args):
        raise AssertionError("monomials were multiplied while building a stencil")

    monkeypatch.setattr(super_poly, "_product", refuse)
    for cache in (complexes.contraction_stencil, complexes._derivative_stencil):
        cache.cache_clear()
    complexes.build_koszul(2, 2, 4)
    complexes.build_derham(2, 2, 4)
    complexes.build_berezinian(2, 2, 2, 4)
    assert complexes.contraction_stencil.cache_info().misses > 0
    assert complexes._derivative_stencil.cache_info().misses > 0
