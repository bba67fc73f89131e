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
from fractions import Fraction
from itertools import combinations

import pytest

from skos.berezinian import GrassmannElement, ber, random_grassmann, random_invertible_supermatrix

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


def _reference_draw(rng, gens, parity):
    """The draw loop the digest was recorded with: masks from ``combinations``
    by size, one ``Fraction`` per kept monomial."""
    terms = {}
    for size in range(parity, gens + 1, 2):
        for subset in combinations(range(gens), size):
            if rng.random() < 0.5:
                num = rng.randint(-3, 3)
                if num:
                    terms[tuple(i + 1 for i in subset)] = Fraction(num, rng.randint(1, 2))
    return GrassmannElement.make(gens, terms)


@pytest.mark.parametrize("gens", [7, 8])
@pytest.mark.parametrize("parity", [0, 1])
def test_draws_past_six_generators_follow_the_reference_loop(gens, parity):
    """The digest pins draws on at most six generators; past them, each draw
    equals the reference loop's and leaves the generator in the same state."""
    for seed in range(4):
        ours, ref = random.Random(seed), random.Random(seed)
        assert random_grassmann(ours, gens, parity) == _reference_draw(ref, gens, parity)
        assert ours.random() == ref.random()
