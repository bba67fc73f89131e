"""Kernel for the supercommutative bigraded polynomial algebra.

The algebra is generated, over an exact coefficient ring (arbitrary
precision integers or rationals), by four families:

    x0..x{a-1}    even polynomial generators   (weight 1, wedge degree 0)
    t1..t{b}      odd polynomial generators    (weight 1, wedge degree 0)
    dx0..dx{a-1}  differentials of the x_i     (weight 1, wedge degree 1)
    dt1..dt{b}    differentials of the t_j     (weight 1, wedge degree 1)

Two homogeneous elements of wedge degrees (p, q) and parities (s, u)
commute up to the sign (-1)**(p*q + s*u).  In particular every t_j and
every dx_i squares to zero, while x_i and dt_j admit free powers.  The
canonical written form of a monomial is

    x^alpha * t_S * dx_E * dt^beta

with the index sets S, E strictly increasing.  Every operation here is
pure and every value immutable, so everything is safe to share across
threads.

No operation sorts a word of generators: every sign has a closed form
on canonical monomials.  The product of two of them is

    x^alpha t_S dx_E dt^beta * x^alpha' t_S' dx_E' dt^beta'
      = (-1)^(inv(S, S') + inv(E, E') + |beta| (|S'| + |E'|))
        x^(alpha+alpha') t_(S+S') dx_(E+E') dt^(beta+beta'),

with inv(A, B) = #{(a, b) in A x B: a > b}, and zero when S and S' or
E and E' meet: x is central, t_S' and dx_E' each move left across
dt^beta, the t's and the dx's each merge, and the dt's commute.
``mul`` applies it to each pair of terms; ``normalize`` (and through it
``parse_poly``) multiplies a word's generators from left to right.  The
two antiderivations each replace one generator of a canonical monomial
(k counts from 0):

    contract_euler, k-th i in E:   (-1)^k
    contract_euler, dt_j, j not in S:   (-1)^(|E| + #{s in S: s > j}) beta_j
    exterior_d, x_i, i not in E:   (-1)^#{e in E: e < i} alpha_i
    exterior_d, k-th j in S:   (-1)^(|S| - 1 - k + |E|)

Each is the Leibniz sign (-1)^(wedge degree of the generators before
the replaced one) times the sign of moving the new generator into place.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from operator import add, index
from typing import Iterable, NamedTuple
import re

# Generator kinds, ordered as written in a canonical monomial; each is
# also the index of its family's field in SuperMonomial.
X, THETA, DX, DTHETA = 0, 1, 2, 3

_KIND_BY_NAME = {"x": X, "t": THETA, "dx": DX, "dt": DTHETA}
_NAME_BY_KIND = {v: k for k, v in _KIND_BY_NAME.items()}

Coeff = int | Fraction


class GeneratorSet(NamedTuple):
    """Counts of even (x) and odd (t) polynomial generators."""

    even: int
    odd: int

    def check(self) -> None:
        if self.even < 0 or self.odd < 0:
            raise ValueError(f"negative generator count: {self}")


class SuperMonomial(NamedTuple):
    """Canonical monomial x^alpha * t_S * dx_E * dt^beta.

    ``x_pow`` and ``dt_pow`` are dense exponent tuples; ``thetas`` and
    ``dxs`` are strictly increasing index tuples (t indices start at 1,
    dx indices at 0).
    """

    x_pow: tuple[int, ...]
    thetas: tuple[int, ...]
    dxs: tuple[int, ...]
    dt_pow: tuple[int, ...]

    @property
    def weight(self) -> int:
        return sum(self.x_pow) + len(self.thetas) + len(self.dxs) + sum(self.dt_pow)

    @property
    def wedge_degree(self) -> int:
        return len(self.dxs) + sum(self.dt_pow)

    @property
    def parity(self) -> int:
        return (len(self.thetas) + sum(self.dt_pow)) & 1

    def sort_key(self):
        """Deterministic basis order: lexicographic on (E, beta, alpha, S)."""
        return (self.dxs, self.dt_pow, self.x_pow, self.thetas)

    def __str__(self) -> str:
        x_pow, thetas, dxs, dt_pow = self
        parts = []
        for i, e in enumerate(x_pow):
            if e:
                parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        for j in thetas:
            parts.append(f"t{j}")
        for i in dxs:
            parts.append(f"dx{i}")
        for j, e in enumerate(dt_pow, 1):
            if e:
                parts.append(f"dt{j}" if e == 1 else f"dt{j}^{e}")
        return "*".join(parts) or "1"


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """``(inv(a, b), sorted a + b)`` for increasing index tuples, or
    ``None`` when they share an index (a square-zero generator repeats)."""
    if not a or not b:
        return 0, a + b
    inv = 0
    for y in b:
        at = bisect(a, y)
        if at and a[at - 1] == y:
            return None
        inv += len(a) - at
    return inv, tuple(sorted(a + b))


def _product(m: SuperMonomial, n: SuperMonomial) -> tuple[int, SuperMonomial] | None:
    """Closed-form product of canonical monomials (see the module
    docstring): ``(sign, monomial)``, or ``None`` when it vanishes."""
    x_pow, thetas, dxs, dt_pow = m
    x_pow2, thetas2, dxs2, dt_pow2 = n
    merged_t = _merge(thetas, thetas2)
    merged_dx = _merge(dxs, dxs2)
    if merged_t is None or merged_dx is None:
        return None
    swaps = merged_t[0] + merged_dx[0] + sum(dt_pow) * (len(thetas2) + len(dxs2))
    mono = SuperMonomial(
        tuple(map(add, x_pow, x_pow2)), merged_t[1], merged_dx[1], tuple(map(add, dt_pow, dt_pow2))
    )
    return (-1 if swaps & 1 else 1), mono


class SuperPolynomial:
    """Finite sum of canonical monomials with nonzero exact coefficients.

    Zero coefficients are never stored; the zero polynomial has an empty
    term map.  Instances are immutable.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: GeneratorSet, terms: dict[SuperMonomial, Coeff]):
        gens = GeneratorSet(*gens)
        gens.check()
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "terms", {m: c for m, c in terms.items() if c})

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SuperPolynomial is immutable")

    @classmethod
    def zero(cls, gens: GeneratorSet) -> "SuperPolynomial":
        return cls(gens, {})

    @classmethod
    def one(cls, gens: GeneratorSet) -> "SuperPolynomial":
        return cls(gens, {unit_monomial(gens): 1})

    @classmethod
    def single(cls, gens: GeneratorSet, mono: SuperMonomial, coeff: Coeff = 1) -> "SuperPolynomial":
        return cls(gens, {mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "SuperPolynomial") -> None:
        if self.gens != other.gens:
            raise ValueError(f"mismatched generator sets: {self.gens} vs {other.gens}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return SuperPolynomial(self.gens, out)

    def __neg__(self) -> "SuperPolynomial":
        return SuperPolynomial(self.gens, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + (-other)

    def scale(self, c: Coeff) -> "SuperPolynomial":
        return SuperPolynomial(self.gens, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other) -> "SuperPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return mul(self, other)

    __rmul__ = __mul__

    def sorted_terms(self) -> list[tuple[SuperMonomial, Coeff]]:
        return sorted(
            self.terms.items(),
            key=lambda mc: (mc[0].weight, mc[0].wedge_degree, mc[0].sort_key()),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            ms = str(mono)
            if ms == "1":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(ms)
            elif coeff == -1:
                parts.append(f"-{ms}")
            else:
                parts.append(f"{coeff}*{ms}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SuperPolynomial({self.gens.even},{self.gens.odd}: {self})"


def unit_monomial(gens: GeneratorSet) -> SuperMonomial:
    return SuperMonomial((0,) * gens[0], (), (), (0,) * gens[1])


Word = Iterable[tuple]


def _expand_word(word: Word) -> list[tuple[int, int, int]]:
    """The ``(kind, index, exp)`` factors of ``word`` with ``exp >= 1``."""
    factors: list[tuple[int, int, int]] = []
    for factor in word:
        if len(factor) == 2:
            kind, idx = factor
            exp = 1
        else:
            kind, idx, exp = factor
        if isinstance(kind, str):
            if kind not in _KIND_BY_NAME:
                raise ValueError(f"unknown generator kind {kind!r}")
            kind = _KIND_BY_NAME[kind]
        elif kind not in (X, THETA, DX, DTHETA):
            raise ValueError(f"unknown generator kind {kind!r}")
        if exp < 0:
            raise ValueError("negative exponent in word")
        exp = index(exp)
        if exp:
            factors.append((kind, idx, exp))
    return factors


def normalize(gens: GeneratorSet, word: Word, coeff: Coeff = 1) -> SuperPolynomial:
    """Canonicalize a product of generators into a single-term polynomial.

    ``word`` is a sequence of ``(kind, index)`` or ``(kind, index, exp)``
    factors, with ``kind`` one of ``"x"``, ``"t"``, ``"dx"``, ``"dt"``
    (or the numeric constants).  The result is ``+-coeff`` times the
    canonical monomial, or zero when a square-zero generator repeats.
    Each factor is one monomial and one product, whatever its exponent.
    """
    gens = GeneratorSet(*gens)
    a, b = gens
    unit = unit_monomial(gens)
    factors = []
    for kind, idx, exp in _expand_word(word):
        if not (0 <= idx < a if kind in (X, DX) else 1 <= idx <= b):
            raise ValueError(f"generator index out of range: {_NAME_BY_KIND[kind]}{idx}")
        factor = list(unit)
        if kind == X:
            factor[X] = _bump(unit.x_pow, idx, exp)
        elif kind == DTHETA:
            factor[DTHETA] = _bump(unit.dt_pow, idx - 1, exp)
        elif exp == 1:
            factor[kind] = (idx,)
        else:
            factors.append(None)  # t_j^2 = dx_i^2 = 0
            continue
        factors.append(SuperMonomial(*factor))
    sign, mono = 1, unit
    for factor in factors:
        res = None if factor is None else _product(mono, factor)
        if res is None:
            return SuperPolynomial.zero(gens)
        step, mono = res
        sign *= step
    return SuperPolynomial.single(gens, mono, sign * coeff)


def mul(f: SuperPolynomial, g: SuperPolynomial) -> SuperPolynomial:
    """Supercommutative product, bilinear over the term maps."""
    f._check_compatible(g)
    out: dict[SuperMonomial, Coeff] = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            res = _product(m1, m2)
            if res is not None:
                sign, mono = res
                out[mono] = out.get(mono, 0) + sign * c1 * c2
    return SuperPolynomial(f.gens, out)


def _bump(powers: tuple[int, ...], i: int, step: int) -> tuple[int, ...]:
    """``powers`` with entry ``i`` moved by ``step``."""
    return powers[:i] + (powers[i] + step,) + powers[i + 1:]


def contract_euler(f: SuperPolynomial) -> SuperPolynomial:
    """Interior product with the Euler field: dx_i -> x_i, dt_j -> t_j.

    B-linear antiderivation of wedge degree -1; preserves weight and
    parity, squares to zero.  On x^alpha t_S dx_E dt^beta it is, with
    no word to sort (the Leibniz sign times the sign of moving the new
    generator into place):

    - for the k-th (0-based) i in E: (-1)^k x^(alpha+e_i) t_S dx_(E-i) dt^beta;
    - for beta_j > 0 and j not in S:
      (-1)^(|E| + #{s in S: s > j}) beta_j x^alpha t_(S+j) dx_E dt^(beta-e_j).
    """
    out: dict[SuperMonomial, Coeff] = {}
    for (x_pow, thetas, dxs, dt_pow), coeff in f.terms.items():
        for k, i in enumerate(dxs):
            m = SuperMonomial(_bump(x_pow, i, 1), thetas, dxs[:k] + dxs[k + 1:], dt_pow)
            out[m] = out.get(m, 0) + (-coeff if k & 1 else coeff)
        for j, e in enumerate(dt_pow, 1):
            if e and j not in thetas:
                at = bisect(thetas, j)
                m = SuperMonomial(x_pow, thetas[:at] + (j,) + thetas[at:], dxs, _bump(dt_pow, j - 1, -1))
                c = e * coeff
                out[m] = out.get(m, 0) + (-c if (len(dxs) + len(thetas) - at) & 1 else c)
    return SuperPolynomial(f.gens, out)


def exterior_d(f: SuperPolynomial) -> SuperPolynomial:
    """Exterior differential: x_i -> dx_i, t_j -> dt_j.

    A-linear antiderivation of wedge degree +1; preserves weight and
    parity, squares to zero.  Together with :func:`contract_euler` it
    satisfies the Cartan identity: on weight-n elements the
    anticommutator is multiplication by n.  On x^alpha t_S dx_E dt^beta
    it is, with no word to sort:

    - for alpha_i > 0 and i not in E:
      (-1)^#{e in E: e < i} alpha_i x^(alpha-e_i) t_S dx_(E+i) dt^beta;
    - for the k-th (0-based) j in S:
      (-1)^(|S| - 1 - k + |E|) x^alpha t_(S-j) dx_E dt^(beta+e_j).
    """
    out: dict[SuperMonomial, Coeff] = {}
    for (x_pow, thetas, dxs, dt_pow), coeff in f.terms.items():
        for i, e in enumerate(x_pow):
            if e and i not in dxs:
                at = bisect(dxs, i)
                m = SuperMonomial(_bump(x_pow, i, -1), thetas, dxs[:at] + (i,) + dxs[at:], dt_pow)
                c = e * coeff
                out[m] = out.get(m, 0) + (-c if at & 1 else c)
        for k, j in enumerate(thetas):
            m = SuperMonomial(x_pow, thetas[:k] + thetas[k + 1:], dxs, _bump(dt_pow, j - 1, 1))
            out[m] = out.get(m, 0) + (-coeff if (len(thetas) - 1 - k + len(dxs)) & 1 else coeff)
    return SuperPolynomial(f.gens, out)


def weight_component(f: SuperPolynomial, weight: int, wedge_degree: int) -> SuperPolynomial:
    """Project onto the terms of the given weight and wedge degree."""
    return SuperPolynomial(
        f.gens,
        {
            m: c
            for m, c in f.terms.items()
            if m.weight == weight and m.wedge_degree == wedge_degree
        },
    )


_FACTOR_RE = re.compile(r"^(x|t|dx|dt)(\d+)(?:\^(\d+))?$")
_NUM_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_poly(gens: GeneratorSet, text: str) -> SuperPolynomial:
    """Parse the textual polynomial format.

    Terms are joined by ``+``; each term is a ``*``-separated product of
    an optional rational coefficient and generator powers, e.g.
    ``-3*x0^2*t1*dx0*dt2^3``.  Generators may appear in any order; the
    result is normalized.
    """
    gens = GeneratorSet(*gens)
    text = text.strip()
    if text == "0" or not text:
        return SuperPolynomial.zero(gens)
    total = SuperPolynomial.zero(gens)
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        coeff: Coeff = 1
        if chunk.startswith("-") and not _NUM_RE.match(chunk.split("*", 1)[0]):
            coeff = -1
            chunk = chunk[1:].strip()
        word = []
        for factor in chunk.split("*"):
            factor = factor.strip()
            if _NUM_RE.match(factor):
                try:
                    q = Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") from None
                coeff = coeff * (int(q) if q.denominator == 1 else q)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            kind, idx, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
            word.append((kind, idx, exp))
        total = total + normalize(gens, word, coeff)
    return total
