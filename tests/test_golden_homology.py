"""Golden digest of homology over the Berezinian and specialized complexes.

The digest was recorded before the elimination kernel was replaced, so
it pins every free rank and torsion factor the old code reported on
complexes the benchmark never hashes.  The specialized coefficient
vectors are non-units, so their integral homology has torsion, and
(6, 10, 15) generates the unit ideal with no entry +-1.
"""

import hashlib

from skos.complexes import WindowError, build_berezinian, specialize_koszul
from skos.exact_linalg import homology

BASES = ("Z", "Q", "Fp:2", "Fp:3")
GOLDEN = "55fd5ab69bf4cd69dcaf722bbde9ba443de00a8235527a497011eebbafd15eb0"


def _complexes():
    for a in range(4):
        for b in range(4 - a):
            for n in range(4):
                yield build_berezinian(a, b, n, 4)
    for a in range(5):
        for b in range(5 - a):
            for even in ((2,) * a, tuple(range(2, 2 * a + 1, 2)), (6, 10, 15, 0)[:a]):
                yield specialize_koszul(a, b, even + (0,) * b, 4)


def _summaries():
    for C in _complexes():
        for pos in C.positions:
            for base in BASES:
                try:
                    yield str(homology(C, base, pos))
                except WindowError:
                    pass  # a neighbor lies outside the materialized window


def test_berezinian_and_specialized_homology_digest():
    lines = list(_summaries())
    assert len(lines) == 1100
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN


def _try_homology(C, base, pos):
    try:
        return homology(C, base, pos)
    except WindowError:
        return None


def test_universal_coefficients_on_one_complex_per_slice():
    """dim_{F_p} H^pos = free^pos + t_p(H^pos) + t_p(H^(pos+1)) per parity,
    where t_p counts the invariant factors divisible by p, and the free
    ranks over Q are those over Z.  Each complex object serves every base,
    so a memo that forgot the base or the prime would break an identity."""
    checked = 0
    for C in _complexes():
        over_z = {pos: _try_homology(C, "Z", pos) for pos in C.positions}
        for pos, h in over_z.items():
            if h is None:
                continue
            assert _try_homology(C, "Q", pos).free == h.free
            above = over_z.get(pos + 1)
            if above is None:
                continue
            for p in (2, 3, 5):
                got = homology(C, f"Fp:{p}", pos).free
                want = [
                    free + sum(f % p == 0 for f in here) + sum(f % p == 0 for f in there)
                    for free, here, there in (
                        (h.free.even, h.torsion_even, above.torsion_even),
                        (h.free.odd, h.torsion_odd, above.torsion_odd),
                    )
                ]
                assert [got.even, got.odd] == want, (C.kind, C.gens, C.weight, C.omega, pos, p)
                checked += 1
    assert checked == 570
