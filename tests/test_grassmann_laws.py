"""Ring laws of the Grassmann layer, checked with Hypothesis.

Products are compared with an oracle on sorted theta tuples with
``Fraction`` coefficients, the representation the bitmask kernel
replaced, and supermatrix records must parse to what ``make`` builds.
The same file checks the product plans: each lists every disjoint
mask pair with the oracle's sign, is built once per generator count and
only up to ``_PLAN_GENS`` generators, so large generator counts cost
nothing up front: their signs come from the terms themselves, memoized
per mask, not from a table sized by ``gens``.
"""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skos import berezinian
from skos.berezinian import GrassmannElement, SuperMatrix, ber, det_even, invert_unit

GENS = 5
ROOT = Path(__file__).resolve().parents[1]


def _merge_sign(left, right):
    """Sorted merge of two theta index tuples with the anticommutation sign.

    Returns None when an index repeats (theta squared is zero).
    """
    if set(left) & set(right):
        return None
    sign = 1
    merged = list(left)
    for t in right:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > t:
            pos -= 1
        # t moves left across len(merged) - pos odd generators
        if (len(merged) - pos) & 1:
            sign = -sign
        merged.insert(pos, t)
    return sign, tuple(merged)


def oracle_mul(x, y):
    out = {}
    for t1, c1 in x.terms:
        for t2, c2 in y.terms:
            merged = _merge_sign(t1, t2)
            if merged is not None:
                sign, thetas = merged
                out[thetas] = out.get(thetas, Fraction(0)) + sign * c1 * c2
    return GrassmannElement.make(x.gens, out)


COEFFS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
MONOMIALS = st.sets(st.integers(1, GENS), max_size=GENS).map(lambda s: tuple(sorted(s)))


def elements(parity=None, body=None):
    monos = MONOMIALS if parity is None else MONOMIALS.filter(lambda t: len(t) % 2 == parity)
    terms = st.dictionaries(monos, COEFFS, max_size=8)
    if body is not None:
        terms = st.builds(lambda d, b: {**d, (): b}, terms, body)
    return terms.map(lambda d: GrassmannElement.make(GENS, d))


def even_matrices(n):
    return st.lists(st.lists(elements(0), min_size=n, max_size=n), min_size=n, max_size=n)


def matmul(A, B):
    zero = GrassmannElement.zero(GENS)
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), zero) for j in range(len(B[0]))]
            for i in range(len(A))]


LAWS = settings(max_examples=60, deadline=None)


@LAWS
@given(elements(), elements())
def test_product_matches_tuple_oracle(x, y):
    assert x * y == oracle_mul(x, y)


@LAWS
@given(elements(), elements(), elements())
def test_associative_and_distributive(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@LAWS
@given(st.integers(1, GENS), elements(1), elements(1))
def test_generators_square_to_zero_and_odd_elements_anticommute(i, a, b):
    theta = GrassmannElement.make(GENS, {(i,): 1})
    assert (theta * theta).is_zero()
    assert a * b == -(b * a)
    assert (a * a).is_zero()


@LAWS
@given(elements(0, body=COEFFS.filter(bool)))
def test_unit_times_inverse_is_one(u):
    assert u * invert_unit(u) == GrassmannElement.scalar(GENS, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(even_matrices(n), even_matrices(n))))
def test_det_is_multiplicative(pair):
    A, B = pair
    assert det_even(matmul(A, B)) == det_even(A) * det_even(B)


@LAWS
@given(elements(), elements())
def test_immutable_hashable_and_equal_values_compare_equal(x, y):
    again = (x + y) - y
    assert again == x and hash(again) == hash(x)
    assert len({x, again}) == 1
    with pytest.raises(AttributeError):
        x.gens = 3
    with pytest.raises(AttributeError):
        x._num = {}


def test_sparse_product_at_forty_generators():
    gens = 40
    a = GrassmannElement.make(gens, {(2, 39): 3, (1,): 1})
    b = GrassmannElement.make(gens, {(40,): 1, (5, 17, 38): Fraction(1, 2)})
    tracemalloc.start()
    try:
        prod = a * b
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # bytes: no table of 2^gens signs
    assert prod == GrassmannElement.make(gens, {
        (2, 39, 40): 3,
        (2, 5, 17, 38, 39): Fraction(-3, 2),  # t39 moves left across t5, t17, t38
        (1, 40): 1,
        (1, 5, 17, 38): Fraction(1, 2),
    })
    assert b * a == GrassmannElement.make(gens, {
        (2, 39, 40): 3,
        (2, 5, 17, 38, 39): Fraction(-3, 2),
        (1, 40): -1,
        (1, 5, 17, 38): Fraction(-1, 2),
    })


def test_import_builds_no_per_gens_table():
    """No module-level container or cache of skos grows with the generator count."""
    probe = (
        "import skos, sys\n"
        "from skos.berezinian import GrassmannElement\n"
        "x = GrassmannElement.make(24, {(1, 24): 1}) * GrassmannElement.make(24, {(2, 23): 1})\n"
        "mods = [m for n, m in sys.modules.items() if n == 'skos' or n.startswith('skos.')]\n"
        "sizes = [len(v) if isinstance(v, (dict, list, tuple, set, frozenset))\n"
        "         else v.cache_info().currsize\n"
        "         for m in mods for k, v in vars(m).items() if not k.startswith('__')\n"
        "         and (isinstance(v, (dict, list, tuple, set, frozenset)) or hasattr(v, 'cache_info'))]\n"
        "print(max(sizes, default=0))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64


def _term_lists(parity):
    """Term lists of one parity as a record writes them, with repeated
    theta lists and zero coefficients among them."""
    monos = MONOMIALS.filter(lambda t: len(t) % 2 == parity)
    coeffs = st.one_of(COEFFS, st.just(Fraction(0)))
    return st.lists(st.tuples(monos, coeffs), max_size=8).flatmap(
        lambda terms: st.lists(st.sampled_from(terms), max_size=4).map(terms.__add__)
        if terms else st.just(terms)
    )


def _make(terms):
    summed = {}
    for thetas, c in terms:
        summed[thetas] = summed.get(thetas, 0) + c
    return GrassmannElement.make(GENS, summed)


@LAWS
@given(_term_lists(0), _term_lists(1))
def test_record_parse_matches_make(even, odd):
    def entry(terms):
        return [{"coeff": str(c), "thetas": list(t)} for t, c in terms]

    rec = {"p": 1, "q": 1, "grassmann_gens": GENS,
           "entries": [entry(even), entry(odd), entry(odd), entry(even)]}
    M = SuperMatrix.from_record(rec)
    assert M.X[0][0] == M.T[0][0] == _make(even)
    assert M.Y[0][0] == M.Z[0][0] == _make(odd)


def _counted_plans(monkeypatch):
    """An empty plan table for this test, and the list of the generator
    counts whose plan is built while it runs."""
    builds, build = [], berezinian._build_plan
    monkeypatch.setattr(berezinian, "_PLANS", {})
    monkeypatch.setattr(berezinian, "_build_plan", lambda gens: builds.append(gens) or build(gens))
    return builds


def test_prefix_parity_once_per_mask_on_the_ber_benchmark(monkeypatch):
    """One pass over the seed-1 ber_check records evaluates P(b) once per
    distinct mask, every miss of the bounded cache still cached, and
    builds the product plan of each generator count once."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    records = [r.payload for r in workloads.build_requests("ber_check", 1)]
    gens = max(rec["grassmann_gens"] for rec in records)
    assert gens <= berezinian._PLAN_GENS
    builds = _counted_plans(monkeypatch)
    berezinian._prefix_parity.cache_clear()
    for rec in records:
        ber(SuperMatrix.from_record(rec))
    info = berezinian._prefix_parity.cache_info()
    assert info.misses == info.currsize <= 2**gens
    assert sorted(builds) == sorted({rec["grassmann_gens"] for rec in records})


def _mask_thetas(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@pytest.mark.parametrize("gens", range(berezinian._PLAN_GENS + 1))
def test_plan_lists_every_disjoint_mask_with_the_oracle_sign(gens):
    plan = berezinian._plan(gens)
    full = (1 << gens) - 1
    for parity in (0, 1):
        assert len(plan[parity]) == 1 << gens
        for a, row in enumerate(plan[parity]):
            free = full & ~a
            assert sorted(b for b, _, _ in row) == [
                b for b in range(1 << gens) if b & free == b and b.bit_count() % 2 == parity
            ]
            for b, m, odd in row:
                sign, thetas = _merge_sign(_mask_thetas(a), _mask_thetas(b))
                assert (m, (-1) ** odd) == (a | b, sign) and _mask_thetas(m) == thetas


def test_plan_is_built_once_only_when_walked_and_only_up_to_six_generators(monkeypatch):
    builds = _counted_plans(monkeypatch)
    y = GrassmannElement.make(6, {(3,): 1, (4, 5, 6): -1})
    sparse = GrassmannElement.make(6, {(1,): 1, (2, 6): 2})
    # plan lists of 16 and 8 masks against a two-term y: no term walks
    assert sparse * y == oracle_mul(sparse, y) and builds == []
    tracemalloc.start()
    try:
        for gens in (6, 6, 7, 8):
            # the second term of x leaves out t3 and t4, so its plan list
            # holds two masks, no more than y has terms
            x = GrassmannElement.make(gens, {(1,): 1, tuple(i for i in range(1, gens + 1) if i not in (3, 4)): 2})
            y = GrassmannElement.make(gens, {(3,): 1, (4, 5, 6): -1})
            assert x * y == oracle_mul(x, y) and y * x == oracle_mul(y, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert builds == [6] and list(berezinian._PLANS) == [6]
    assert sum(len(row) for rows in berezinian._PLANS[6] for row in rows) == 3**6
    assert peak < 100_000  # bytes: the 6-generator plan is about 48 KB


PLAN_EDGE_GENS = (0, 1, 5, 6, 7, 8)


@st.composite
def _edge_operand(draw, gens):
    """An element on ``gens`` generators: one or two terms, or up to 64
    (dense), of one parity or of both."""
    parity = draw(st.sampled_from([0, 1, None]))
    monos = [m for m in range(1 << gens) if parity is None or m.bit_count() % 2 == parity]
    size = min(len(monos), 64 if draw(st.booleans()) else draw(st.integers(1, 2)))
    picked = draw(st.randoms(use_true_random=False)).sample(monos, size)
    coeffs = draw(st.lists(COEFFS.filter(bool), min_size=size, max_size=size))
    return GrassmannElement.make(gens, {_mask_thetas(m): c for m, c in zip(picked, coeffs)})


@LAWS
@given(st.sampled_from(PLAN_EDGE_GENS).flatmap(lambda g: st.tuples(_edge_operand(g), _edge_operand(g))))
def test_product_matches_oracle_on_both_sides_of_the_plan_bound(pair):
    x, y = pair
    assert x * y == oracle_mul(x, y)
    assert y * x == oracle_mul(y, x)
