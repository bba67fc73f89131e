"""Golden digest of Berezin determinants and of the seeded supermatrices.

The digest was recorded before the Grassmann layer moved from sorted
theta tuples with ``Fraction`` coefficients to bitmask keys, and before
``det_even`` and the block inverse became one elimination.  It pins the
record and the text of ``ber`` on a (p, q, gens) grid with empty blocks
(p = 0, q = 0) and up to six generators, and the records of the seeded
inputs and of their product.  The inputs come from
``random_invertible_supermatrix``, so the digest also pins how many
random numbers ``random_grassmann`` draws and which candidates
``is_invertible`` rejects: the benchmark generates its inputs the same
way.
"""

import hashlib
import json
import random

from skos.berezinian import ber, random_invertible_supermatrix

GOLDEN = "b1d5e1b3db591fb790c60c7d8ff44866088aa6805bf3103193eb6ab932e09ce6"


def _lines():
    for p in range(4):
        for q in range(4):
            for gens in range(7):
                rng = random.Random(f"golden-ber:{p}|{q}|{gens}")
                M = random_invertible_supermatrix(rng, p, q, gens)
                N = random_invertible_supermatrix(rng, p, q, gens)
                for mat in (M, N, M @ N):
                    value = ber(mat)
                    yield json.dumps(mat.to_record(), sort_keys=True)
                    yield json.dumps(value.to_record())
                    yield str(value)


def test_ber_and_input_digest():
    lines = list(_lines())
    assert len(lines) == 4 * 4 * 7 * 3 * 3
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN
