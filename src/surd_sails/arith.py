"""Exact arithmetic in real quadratic fields and the GL(2,Z) action.

Values are (a + b*sqrt(d))/c in a canonical form that makes equality
structural: c > 0, gcd(a, b, c) = 1, d squarefree and > 1, b != 0.
Rational values are rejected at construction, so every QuadraticSurd is
irrational.  All ordering decisions are made by integer sign analysis;
no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple, Union

from .errors import DivisionByZero, RadicandMismatch, RationalValue, ResourceLimit, ZeroDenominator

Rational = Fraction

_RationalLike = Union[int, Fraction]

# the largest trial divisor of squarefree_split: every n <= 10**18 is split within it
_TRIAL_DIVISOR_CAP = 10**6


@lru_cache(maxsize=1 << 16)
def squarefree_split(n: int) -> tuple[int, int]:
    """Split n > 0 as root**2 * core with core squarefree.

    Trial division only up to the cube root: the remaining cofactor has at
    most two prime factors, so it is either a perfect square or squarefree.
    A cofactor whose cube root passes _TRIAL_DIVISOR_CAP raises
    ResourceLimit instead.
    """
    if n <= 0:
        raise ValueError("squarefree_split requires a positive integer")
    root, core, m = 1, 1, n
    p = 2
    while p * p * p <= m:
        if p > _TRIAL_DIVISOR_CAP:
            raise ResourceLimit(
                f"cannot split {n} into a square and a squarefree part by trial division"
                f" within the limit of {_TRIAL_DIVISOR_CAP} for the largest divisor"
            )
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            root *= p ** (e // 2)
            if e % 2:
                core *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        root *= r
    else:
        core *= m
    return root, core


def sign_plus_sqrt(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and d >= 0."""
    if b == 0 or d == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        if a >= 0:
            return 1
        return (b * b * d > a * a) - (b * b * d < a * a)
    if a <= 0:
        return -1
    return (a * a > b * b * d) - (a * a < b * b * d)


def _sign_two_radicals(a: int, b: int, db: int, c: int, dc: int) -> int:
    """Exact sign of a + b*sqrt(db) + c*sqrt(dc), db != dc both squarefree > 1."""
    # sign of the radical part first
    sb = (b > 0) - (b < 0)
    sc = (c > 0) - (c < 0)
    if sb == sc or sb == 0 or sc == 0:
        t_sign = sb or sc
    else:
        t_sign = sb * ((b * b * db > c * c * dc) - (b * b * db < c * c * dc))
    if t_sign == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return t_sign
    a_sign = (a > 0) - (a < 0)
    if a_sign == t_sign:
        return a_sign
    # opposite signs: compare a^2 with t^2 = b^2 db + c^2 dc + 2bc sqrt(db*dc)
    u = a * a - b * b * db - c * c * dc
    v = -2 * b * c
    return a_sign * sign_plus_sqrt(u, v, db * dc)


class QuadraticSurd:
    """Canonical element (a + b*sqrt(d))/c of a real quadratic field."""

    __slots__ = ("a", "b", "c", "d")

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ZeroDenominator("denominator must be nonzero")
        if d <= 0:
            raise ValueError("radicand must be a positive integer")
        if b == 0:
            raise RationalValue("zero sqrt coefficient gives a rational value")
        root, core = squarefree_split(d)
        b *= root
        if core == 1:
            raise RationalValue(f"sqrt({d}) is an integer; value is rational")
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        self.a = a // g
        self.b = b // g
        self.c = c // g
        self.d = core

    @classmethod
    def _make(cls, a: int, b: int, c: int, d: int) -> "QuadraticSurd":
        """Trusted constructor for values already in canonical form."""
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        return self

    @classmethod
    def _reduce(cls, a: int, b: int, c: int, d: int):
        """Normalize (a + b*sqrt(d))/c with d already squarefree; demote rationals."""
        if b == 0:
            return Fraction(a, c)
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        return cls._make(a // g, b // g, c // g, d)

    @classmethod
    def from_root(cls, qa: int, qb: int, qc: int, larger: bool = True) -> "QuadraticSurd":
        """A root of qa*x^2 + qb*x + qc = 0, the larger one by default."""
        if qa == 0:
            raise ValueError("leading coefficient must be nonzero")
        # reduce to the primitive polynomial first: this keeps the discriminant
        # at the scale of the root's field rather than the input's content
        g = gcd(qa, qb, qc)
        qa, qb, qc = qa // g, qb // g, qc // g
        disc = qb * qb - 4 * qa * qc
        if disc <= 0:
            raise ValueError("polynomial has no real irrational roots")
        sign = 1 if larger == (qa > 0) else -1
        return cls(-qb, sign, 2 * qa, disc)

    # -- algebraic data ------------------------------------------------

    def conjugate(self) -> "QuadraticSurd":
        """Image under sqrt(d) -> -sqrt(d); the other root of the minimal polynomial."""
        return QuadraticSurd._make(self.a, -self.b, self.c, self.d)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a, self.c)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.b * self.b * self.d, self.c * self.c)

    def trace_norm(self) -> tuple[Fraction, Fraction]:
        """(self + conjugate, self * conjugate) in lowest terms."""
        return self.trace(), self.norm()

    def minimal_polynomial(self) -> tuple[int, int, int]:
        """Primitive (A, B, C) with A > 0 and A*x^2 + B*x + C vanishing at self."""
        qa = self.c * self.c
        qb = -2 * self.a * self.c
        qc = self.a * self.a - self.b * self.b * self.d
        g = gcd(qa, qb, qc)
        return qa // g, qb // g, qc // g

    def discriminant(self) -> int:
        """Discriminant B^2 - 4*A*C of the primitive minimal polynomial."""
        qa, qb, qc = self.minimal_polynomial()
        return qb * qb - 4 * qa * qc

    # -- ordering ------------------------------------------------------

    def _sign_vs(self, num: int, den: int) -> int:
        # sign of self - num/den, den > 0
        return sign_plus_sqrt(self.a * den - num * self.c, self.b * den, self.d)

    def compare(self, x: _RationalLike) -> int:
        """Exact three-way comparison with a rational: -1, or 1 (never equal)."""
        if isinstance(x, int):
            return self._sign_vs(x, 1)
        return self._sign_vs(x.numerator, x.denominator)

    def _cmp(self, other) -> int:
        if isinstance(other, QuadraticSurd):
            a1, b1, c1, d1 = self.a, self.b, self.c, self.d
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            if d1 == d2:
                return sign_plus_sqrt(a1 * c2 - a2 * c1, (b1 * c2 - b2 * c1), d1)
            return _sign_two_radicals(a1 * c2 - a2 * c1, b1 * c2, d1, -b2 * c1, d2)
        if isinstance(other, (int, Fraction)):
            return self.compare(other)
        return NotImplemented  # type: ignore[return-value]

    def __lt__(self, other):
        s = self._cmp(other)
        return s < 0 if s is not NotImplemented else NotImplemented

    def __le__(self, other):
        s = self._cmp(other)
        return s <= 0 if s is not NotImplemented else NotImplemented

    def __gt__(self, other):
        s = self._cmp(other)
        return s > 0 if s is not NotImplemented else NotImplemented

    def __ge__(self, other):
        s = self._cmp(other)
        return s >= 0 if s is not NotImplemented else NotImplemented

    def __floor__(self) -> int:
        """Exact integer part: the unique n with n <= self < n + 1."""
        bbd = self.b * self.b * self.d
        m = isqrt(bbd) if self.b > 0 else -isqrt(bbd) - 1
        return (self.a + m) // self.c

    def floor(self) -> int:
        return self.__floor__()

    def is_reduced(self) -> bool:
        """True iff self > 1 and the conjugate lies strictly between -1 and 0."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (
            sign_plus_sqrt(a - c, b, d) > 0
            and sign_plus_sqrt(a, -b, d) < 0
            and sign_plus_sqrt(a + c, -b, d) > 0
        )

    # -- field arithmetic ----------------------------------------------

    def _coerce(self, other):
        """Return (a2, b2, c2) for an operand in the same field, or None."""
        if isinstance(other, QuadraticSurd):
            if other.d != self.d:
                raise RadicandMismatch(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})"
                )
            return other.a, other.b, other.c
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        a2, b2, c2 = t
        return QuadraticSurd._reduce(
            self.a * c2 + a2 * self.c, self.b * c2 + b2 * self.c, self.c * c2, self.d
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._make(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        return self + -other if self._coerce(other) is not None else NotImplemented

    def __rsub__(self, other):
        return -self + other if self._coerce(other) is not None else NotImplemented

    def __mul__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        a2, b2, c2 = t
        return QuadraticSurd._reduce(
            self.a * a2 + self.b * b2 * self.d,
            self.a * b2 + self.b * a2,
            self.c * c2,
            self.d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadraticSurd":
        # 1 / ((a + b sqrt d)/c) = c(a - b sqrt d) / (a^2 - b^2 d); never zero
        n = self.a * self.a - self.b * self.b * self.d
        return QuadraticSurd._reduce(self.c * self.a, -self.c * self.b, n, self.d)  # type: ignore[return-value]

    def __truediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        a2, b2, c2 = t
        if isinstance(other, QuadraticSurd):
            return self * other._inverse()
        if a2 == 0:
            raise DivisionByZero("division of a surd by zero")
        return QuadraticSurd._reduce(self.a * c2, self.b * c2, self.c * a2, self.d)

    def __rtruediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return self._inverse() * other if other != 0 else Fraction(0)

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadraticSurd):
            return (
                self.a == other.a
                and self.b == other.b
                and self.c == other.c
                and self.d == other.d
            )
        if isinstance(other, (int, Fraction)):
            return False  # a surd is never rational
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def key(self) -> tuple[int, int, int, int]:
        return self.a, self.b, self.c, self.d

    def __repr__(self):
        return f"QuadraticSurd({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        b = self.b
        radical = f"sqrt({self.d})" if abs(b) == 1 else f"{abs(b)}*sqrt({self.d})"
        if self.a == 0:
            body = radical if b > 0 else f"-{radical}"
            needs_parens = False
        else:
            body = f"{self.a}{'+' if b > 0 else '-'}{radical}"
            needs_parens = True
        if self.c == 1:
            return body
        return f"({body})/{self.c}" if needs_parens else f"{body}/{self.c}"


def surd(a: int, b: int, c: int, d: int) -> QuadraticSurd:
    """Construct and canonicalize (a + b*sqrt(d))/c."""
    return QuadraticSurd(a, b, c, d)


def sqrt_of(value: _RationalLike) -> QuadraticSurd:
    """Exact square root of a positive non-square rational."""
    v = Fraction(value)
    if v <= 0:
        raise ValueError("square root of a non-positive value is not real")
    return QuadraticSurd(0, 1, v.denominator, v.numerator * v.denominator)


def _product(m: tuple[int, int, int, int], n: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The product of two row-major 2x2 integer matrices (p, q, r, s)."""
    p, q, r, s = m
    a, b, c, e = n
    return p * a + q * c, p * b + q * e, r * a + s * c, r * b + s * e


def _inverse(m: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The inverse of a row-major 2x2 integer matrix of determinant +-1."""
    p, q, r, s = m
    d = p * s - q * r  # 1/d = d
    return d * s, -d * q, -d * r, d * p


class UnimodularMatrix(NamedTuple("UnimodularMatrix", [("p", int), ("q", int), ("r", int), ("s", int)])):
    """Row-major integer matrix [[p, q], [r, s]] with determinant +1 or -1.

    The matrix is the entry tuple (p, q, r, s) that _product and _inverse take.
    _make(entries) is the trusted constructor, for continuants, whose
    determinant is (-1)**letters, and for products, inverses and entry
    permutations of unimodular matrices.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int, s: int):
        if p * s - q * r not in (1, -1):
            raise ValueError(f"determinant {p * s - q * r} is not +-1")
        return super().__new__(cls, p, q, r, s)

    def _replace(self, **changes) -> "UnimodularMatrix":
        return type(self)(*super()._replace(**changes))  # _make is trusted, so check the copy

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> int:
        return self.p * self.s - self.q * self.r

    @property
    def trace(self) -> int:
        return self.p + self.s

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix._make(_product(self, other))

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix._make(_inverse(self))

    def transpose(self) -> "UnimodularMatrix":
        return UnimodularMatrix._make((self.p, self.r, self.q, self.s))

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        """Column-vector action on a lattice point."""
        x, y = v
        return self.p * x + self.q * y, self.r * x + self.s * y

    def mobius(self, x: QuadraticSurd) -> QuadraticSurd:
        """Fractional-linear action (p*x + q) / (r*x + s)."""
        # (u + v sqrt d)/(w + z sqrt d), times the conjugate of the denominator;
        # the sqrt coefficient v*w - u*z collapses to det*b*c, never zero
        p, q, r, s = self
        a, b, c, d = x.a, x.b, x.c, x.d
        u, v, w, z = p * a + q * c, p * b, r * a + s * c, r * b
        num, den = u * w - v * z * d, w * w - z * z * d
        return QuadraticSurd._reduce(num, (p * s - q * r) * b * c, den, d)  # type: ignore[return-value]

    def act_on_slope(self, slope: QuadraticSurd) -> QuadraticSurd:
        """Slope of the image of the line through (1, slope): (r + s*t)/(p + q*t)."""
        return UnimodularMatrix._make(self[::-1]).mobius(slope)  # (s, r, q, p)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.p, self.q), (self.r, self.s)

    def __repr__(self):
        return f"UnimodularMatrix({self.p}, {self.q}, {self.r}, {self.s})"

    def __str__(self):
        return f"[[{self.p}, {self.q}], [{self.r}, {self.s}]]"


def mobius(matrix: UnimodularMatrix, x: QuadraticSurd) -> QuadraticSurd:
    """Module-level alias for UnimodularMatrix.mobius."""
    return matrix.mobius(x)
