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
