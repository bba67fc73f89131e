"""Host-speed reference: a fixed pure-Python computation timed between requests.

The machine the benchmark is sized on is a share of a host whose speed
changes by itself, by up to a factor of two, in spells of tens of seconds
to minutes; a spell moves every request of a run alike.  A repetition
therefore times a slice of fixed work that uses no ``skos`` code after
each ``EVERY_S`` seconds of requests.  The slice does the kinds of work
skos does (sparse elimination over dict rows mod p, ``Fraction`` row
operations, products of tuple-keyed terms, JSON text), so the host slows
it as it slows the requests.  ``factor`` is ``SLICE_S`` over the mean
slice time of the repetition; multiplied by it, a measured time becomes
the time the same work takes on a host that runs a slice in ``SLICE_S``.

Nothing here depends on ``skos``, so a change to the program moves the
requests' times and not the slices'.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from fractions import Fraction

# About the median slice time on the machine the benchmark was sized on (Python 3.11,
# one core of a 2-core x86-64 virtual machine) over its sizing runs.
SLICE_S = 0.008
EVERY_S = 0.08  # seconds of requests between two slices

_P = 32003
_rng = random.Random(20240126)
_ROWS = [{c: _rng.randint(1, _P - 1) for c in _rng.sample(range(48), 6)} for _ in range(48)]
_FRACS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(6)] for _ in range(6)]
_TERMS = [(tuple(sorted(_rng.sample(range(8), _rng.randint(0, 3)))), _rng.randint(-5, 5))
          for _ in range(24)]


def _rank_mod_p() -> int:
    pivots: dict[int, dict[int, int]] = {}
    for source in _ROWS:
        row = dict(source)
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], _P - 2, _P)
                pivots[c] = {k: v * inv % _P for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                nv = (row.get(k, 0) - f * v) % _P
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def _fraction_elimination() -> list[Fraction]:
    A = [list(r) for r in _FRACS]
    for i in range(len(A)):
        if A[i][i]:
            for j in range(i + 1, len(A)):
                f = A[j][i] / A[i][i]
                A[j] = [a - f * b for a, b in zip(A[j], A[i])]
    return A[-1]


def _products() -> dict[tuple[int, ...], int]:
    acc: dict[tuple[int, ...], int] = {}
    for m1, c1 in _TERMS:
        for m2, c2 in _TERMS:
            if set(m1) & set(m2):
                continue
            key = tuple(sorted(m1 + m2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def _slice() -> int:
    out = 0
    for _ in range(2):
        out += _rank_mod_p() + len(_products())
        out += len(json.dumps([str(x) for x in _fraction_elimination()]))
    return out


class Reference:
    """Slices timed during one repetition."""

    def __init__(self) -> None:
        self.samples_s: list[float] = []
        self._since_s = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        _slice()
        self.samples_s.append(time.perf_counter() - t0)

    def after(self, latency_s: float) -> None:
        """Called after each request: time a slice once EVERY_S of requests have run."""
        self._since_s += latency_s
        if self._since_s >= EVERY_S:
            self.sample()
            self._since_s = 0.0


def factor(samples_s: list[float]) -> float:
    """Scale that turns a time measured among these slices into reference-speed time."""
    return SLICE_S / statistics.fmean(samples_s)
