"""Homology of Koszul, De Rham and specialized slices against Kuenneth closed forms.

Every weight-n slice splits by multidegree k (the exponent of each
generator).  Each block is a tensor product of one-generator complexes:
Z --k_j--> Z for an odd generator of the Koszul slice (dt^k to t dt^(k-1))
and for an even generator of the De Rham slice (x^k to x^(k-1) dx), and
the exact Z --1--> Z for the other family, so only the compositions of n
over one family survive.  With s nonzero parts of gcd g, the block is the
Koszul complex of (k_1, ..., k_s) over Z.  Its e-th term is Lambda^e Z^s,
and its homology is (Z/g)^C(s-1, e-1) for e = 1..s.  Over F_p it is all of
Lambda^e when p divides g, and zero otherwise.  A specialized complex is
K(omega) on the dx's tensored with the symmetric powers of the dt's, whose
differential is zero.  The closed forms read only integers, so a bug in
assembly, in elimination or in the Smith form shows up as a mismatch.
"""

from collections import defaultdict
from math import comb, gcd

import skos.complexes
from skos.complexes import WindowError, build_derham, build_koszul, specialize_koszul
from skos.exact_linalg import HomologySummary, homology
from skos.multilinear import SuperDim

BASES = ("Z", "Q", "Fp:2", "Fp:3")


def _compositions(n: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers that sums to ``n``."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors of the sum of Z/m over ``orders``, increasing:
    the i-th largest power of each prime goes into the i-th largest factor."""
    powers = defaultdict(list)
    for m in orders:
        q = 2
        while m > 1:
            power = 1
            while m % q == 0:
                m //= q
                power *= q
            if power > 1:
                powers[q].append(power)
            q += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for chain in powers.values():
        for i, power in enumerate(sorted(chain, reverse=True)):
            factors[i] *= power
    return tuple(sorted(factors))


def _closed_form(kind: str, a: int, b: int, weight, omega, base: str, pos: int) -> HomologySummary:
    """The homology at ``pos`` of the full slice, from binomials and gcds alone."""
    p = int(base[3:]) if base.startswith("Fp:") else None
    free, orders = [0, 0], ([], [])

    def add(parity, rank=0, order=1, copies=0):
        free[parity] += rank
        orders[parity].extend([order] * copies)

    if kind in ("koszul", "derham"):
        n = weight
        # Koszul: e counts the t's, at position e - n with parity n; De Rham: e counts the dx's
        e = pos + n if kind == "koszul" else pos
        parity = n % 2 if kind == "koszul" else 0
        for k in _compositions(n, b if kind == "koszul" else a):
            nonzero = [x for x in k if x]
            s, g = len(nonzero), gcd(*nonzero)
            if base == "Z" and g > 1 and 1 <= e <= s:
                add(parity, order=g, copies=comb(s - 1, e - 1))
            elif p and g % p == 0 and 0 <= e <= s:
                add(parity, rank=comb(s, e))
    else:
        g = gcd(*omega[:a])  # 0 when every omega_i vanishes
        for j in range(-pos + 1 if b else 1):  # j dt's, e dx's; C(a, e) = 0 for e > a
            e = -pos - j
            times = comb(b + j - 1, j) if b else 1
            if g == 0 or p and g % p == 0:
                add(j % 2, rank=times * comb(a, e))
            elif base == "Z" and g > 1:
                add(j % 2, order=g, copies=times * comb(a - 1, e))
    return HomologySummary(pos, SuperDim(*free), *map(_invariant_factors, orders))


def _slices():
    """(bases, complex) pairs: Koszul and De Rham with a + b <= 4 and
    weight 1..5, and specialized on the omegas of the golden homology grid,
    all zero and all one, with cap 4."""
    for a in range(5):
        for b in range(5 - a):
            for n in range(1, 6):
                yield BASES, build_koszul(a, b, n)
                yield BASES, build_derham(a, b, n)
            for even in ((2,) * a, tuple(range(2, 2 * a + 1, 2)), (6, 10, 15, 0)[:a], (0,) * a, (1,) * a):
                yield BASES + ("Fp:5",), specialize_koszul(a, b, even + (0,) * b, 4)


def _no_matrix(*args, **kwargs):
    raise AssertionError("the closed forms built a matrix")


def test_homology_matches_the_kunneth_closed_forms(monkeypatch):
    asked = [(C, base, pos) for bases, C in _slices() for base in bases for pos in C.positions]
    with monkeypatch.context() as patch:
        patch.setattr(skos.complexes, "assemble", _no_matrix)
        want = [_closed_form(C.kind, *C.gens, C.weight, C.omega, base, pos) for C, base, pos in asked]
    checked = defaultdict(int)
    for (C, base, pos), expected in zip(asked, want):
        try:
            got = homology(C, base, pos)
        except WindowError:  # the specialized window's lowest position, when b > 0
            assert C.kind == "specialized" and C.gens.odd and pos == -4
            continue
        assert got == expected, (C.kind, C.gens, C.weight, C.omega, base)
        checked[C.kind] += 1
    assert dict(checked) == {"koszul": 1060, "derham": 1060, "specialized": 1375}


def test_invariant_factors_merge_prime_powers():
    assert _invariant_factors([]) == ()
    assert _invariant_factors([2, 3]) == (6,)
    assert _invariant_factors([4, 6, 9, 2]) == (2, 6, 36)
    assert _invariant_factors([12] * 3) == (12, 12, 12)
