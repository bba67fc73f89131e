"""Bases and super-rank formulas for graded pieces of free supermodules.

For a free supermodule of rank (a|b) the wedge-degree-p, symmetric-
degree-q piece has a monomial basis: dx/dt words of wedge degree p
tensored with x/t words of degree q.  The parity-split counts are what
every cohomology table in this package ultimately reports.

A basis is the product of a sorted list of wedge parts and a sorted list
of coefficient parts (``FreeBasis``), so only the two factors are ever
enumerated and sorted.  Each piece's basis is built once per process and
kept in a bounded cache (``basis_wedge_sym``), and each basis computes
the labels and the parities of its entries once, on first use.
Cached bases are shared by every complex and record that names the
piece, so they must not be changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, combinations_with_replacement
from operator import sub
from typing import Iterator, NamedTuple

from skos.super_poly import GeneratorSet, SuperMonomial


class SuperDim(NamedTuple):
    """A parity-split rank (even | odd)."""

    even: int
    odd: int

    @property
    def total(self) -> int:
        return self.even + self.odd

    def __add__(self, other: "SuperDim") -> "SuperDim":  # type: ignore[override]
        return SuperDim(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "SuperDim") -> "SuperDim":
        return SuperDim(self.even - other.even, self.odd - other.odd)

    def flip(self, times: int = 1) -> "SuperDim":
        """Parity swap applied ``times`` times."""
        return SuperDim(self.odd, self.even) if times & 1 else self

    def __str__(self) -> str:
        return f"({self.even}|{self.odd})"


ZERO_DIM = SuperDim(0, 0)


@dataclass(frozen=True)
class FreeBasis:
    """Ordered monomial basis of one graded piece: the product of two factors.

    ``wedges`` holds the wedge parts ``(dxs, dt_pow)`` and ``coefs`` the
    coefficient parts ``(x_pow, thetas)``, each sorted and pairwise
    distinct.  Entry ``i * len(coefs) + j`` is ``coefs[j] * wedges[i]``, so
    the entries run in the lexicographic order on (dxs, dt_pow, x_pow,
    thetas) (``SuperMonomial.sort_key``) without the product being sorted,
    and all differential matrices are reproducible bit for bit.  The
    basis is the two factors alone: the ``labels`` and ``parities`` of its
    entries are computed from them on first use and kept, and ``dims`` is
    counted off them; a basis may be shared through a cache, so neither
    it nor its memos may be changed.
    """

    gens: GeneratorSet
    wedges: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    coefs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    def __len__(self) -> int:
        return len(self.wedges) * len(self.coefs)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The ``str`` of each entry: what a complex record lists.  It writes
        the coefficient part's generators before the wedge part's, "1" for
        the empty monomial."""
        coefs = [str(SuperMonomial(*coef, (), ())) for coef in self.coefs]
        wedges = [str(SuperMonomial((), (), *wedge)) for wedge in self.wedges]
        return tuple(c if w == "1" else w if c == "1" else f"{c}*{w}" for w in wedges for c in coefs)

    @cached_property
    def parities(self) -> tuple[int, ...]:
        """The parity (0 or 1) of each entry, that of its t_S plus that of its
        dt^beta: the coefficient factor's, flipped after an odd wedge part."""
        even = tuple(len(thetas) & 1 for _, thetas in self.coefs)
        odd = tuple(1 - c for c in even)
        return tuple(chain.from_iterable(odd if sum(dt_pow) & 1 else even for _, dt_pow in self.wedges))

    def dims(self) -> SuperDim:
        """The number of even and of odd entries, counted off the two factors."""
        w = sum(sum(dt_pow) & 1 for _, dt_pow in self.wedges)
        c = sum(len(thetas) & 1 for _, thetas in self.coefs)
        return super_product(SuperDim(len(self.wedges) - w, w), SuperDim(len(self.coefs) - c, c))


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``slots`` nonnegative integers summing to ``total``,
    in lexicographic order.

    Stars and bars without recursion, so any number of slots works: the
    ``slots - 1`` cut points 0 <= c_1 <= ... <= c_(slots-1) <= total, taken
    in lexicographic order, give the parts c_1, c_2 - c_1, ..., total - c_(slots-1).
    One slot is answered without the cut points' pool, which
    ``combinations_with_replacement`` would build as a tuple of
    ``total + 1`` ints: a record may ask for weight 10**12 on one even
    generator, whose basis is a handful of monomials.
    """
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for cuts in combinations_with_replacement(range(total + 1), slots - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def iter_sym_monomials(a: int, b: int, q: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (x_pow, thetas) with |x_pow| + |S| = q over a even / b odd slots."""
    for k in range(min(b, q) + 1):
        for thetas in combinations(range(1, b + 1), k):
            for x_pow in _compositions(q - k, a):
                yield x_pow, thetas


def iter_wedge_monomials(a: int, b: int, p: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (dxs, dt_pow) with |E| + |beta| = p over a dx / b dt slots."""
    for k in range(min(a, p) + 1):
        for dxs in combinations(range(a), k):
            for dt_pow in _compositions(p - k, b):
                yield dxs, dt_pow


# Bound of the basis cache.  A cached basis retains its two factors, about
# 64 bytes per entry of their product, and 89 more once its labels and
# parities are read (CPython 3.11, 64-bit).  Every piece with a + b <= 5
# and p + q <= 5 fits: 441 bases of 14633 entries in all, 0.9 MB, or
# 2.2 MB with their labels and parities.
_BASES = 512


@lru_cache(maxsize=_BASES)
def basis_wedge_sym(a: int, b: int, p: int, q: int) -> FreeBasis:
    """Monomial basis of the wedge-degree-p, symmetric-degree-q piece.

    dx_i squares to zero and dt_j has free powers, mirroring t_j / x_i
    on the symmetric side.  The wedge parts and the coefficient parts
    are enumerated and sorted apart; their product is the deterministic
    lexicographic order documented on :class:`FreeBasis`.  Built once
    per (a, b, p, q) and shared by every caller, so it must not be changed.
    """
    if min(a, b, p, q) < 0:
        raise ValueError("a, b, p, q must be nonnegative")
    gens = GeneratorSet(a, b)
    if not wedge_rank(p, a, b).total or not sym_rank(q, a, b).total:  # counted, so neither side is walked in vain
        return FreeBasis(gens)
    return FreeBasis(gens, tuple(sorted(iter_wedge_monomials(a, b, p))), tuple(sorted(iter_sym_monomials(a, b, q))))


def binom(a: int, k: int) -> int:
    """Binomial coefficient under the conventions used throughout:

    C(a, k) = 0 whenever k < 0 or a < k != 0, and C(a, 0) = 1 for any a
    (negative upper index included).
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    if a < k:
        return 0
    return math.comb(a, k)


def wedge_rank(p: int, a: int, b: int) -> SuperDim:
    """Parity-split rank of the p-th wedge power of a rank (a|b) module.

    Closed form: sum over i of C(a, p-i) * C(b+i-1, i), split by the
    parity of i (the number of odd factors).  Nonzero for every p as
    soon as b >= 1; vanishes for p > a when b = 0.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    even = odd = 0
    for i in range(max(p - a, 0), p + 1):  # C(a, p - i) = 0 below
        count = binom(a, p - i) * binom(b + i - 1, i)
        if i & 1:
            odd += count
        else:
            even += count
    return SuperDim(even, odd)


def sym_rank(k: int, a: int, b: int) -> SuperDim:
    """Parity-split count of x^alpha * t_S monomials of degree k: S^k(a|b)
    is Lambda^k(b|a), t_S as dx_S and x^alpha as dt^alpha, with the parity
    |S| = k - |alpha| flipped k times."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return wedge_rank(k, b, a).flip(k)


def super_product(u: SuperDim, v: SuperDim) -> SuperDim:
    """Rank of a tensor product of parity-split free modules."""
    return SuperDim(u.even * v.even + u.odd * v.odd, u.even * v.odd + u.odd * v.even)
