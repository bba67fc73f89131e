"""Golden digest of Bott cohomology tables along each path separately.

``method="both"`` checks that the two paths agree; the digest also pins
the values each path produces on its own, so a change that moved both
paths alike would be caught here.  The digest pins the ``csv_rows``
of ``bott_table(m, n, 4, -4, 4, method, base)`` for m + n <= 4 along the
formula and the direct path over Q, and for m + n <= 3 along the direct
path over F_3.  It was recorded before the local and Laurent models
moved from a private monomial type to ``SuperMonomial``.

A second digest pins the direct path over F_2 for m + n <= 3, where the
direct table departs from the one over Q.  It was recorded while each
matrix was still cut into two parity blocks before it was ranked.
"""

import hashlib

from skos.bott import bott_table

GOLDEN = "9fc232c6d7bd5070003116d022b256b9263aa170bcf90b8d5a12452da34b5c66"
GOLDEN_F2 = "369dd4349dd5a9ec462ad9483a195244dc21b5384e5b255800cc4deb7032ce64"

_GRID = [
    (m, n, method, base)
    for method, base, size in (("formula", "Q", 4), ("direct", "Q", 4), ("direct", "Fp:3", 3))
    for m in range(size + 1)
    for n in range(size + 1 - m)
]


def _lines():
    for m, n, method, base in _GRID:
        for table in bott_table(m, n, 4, -4, 4, method, base):
            yield from table.csv_rows()


def test_bott_table_digest():
    lines = list(_lines())
    assert len(lines) == 4050
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN


def test_direct_table_over_f2_digest():
    lines = [row for m in range(4) for n in range(4 - m)
             for table in bott_table(m, n, 4, -4, 4, "direct", "Fp:2") for row in table.csv_rows()]
    assert len(lines) == 900
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_F2
