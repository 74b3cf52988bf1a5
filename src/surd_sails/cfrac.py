"""Periodic continued fractions of quadratic surds.

Expansion iterates the complete-quotient map x -> 1/(x - floor(x)) with
exact canonical surds as cycle-detection keys, so period detection is
structural equality, never numeric.  The inverse direction (value) picks
the reduced root of the period word's fixed-point quadratic and applies
the preperiod as a fractional-linear map.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .arith import QuadraticSurd, UnimodularMatrix
from .errors import (
    InternalInvariantError,
    InvalidPeriod,
    NotEquivalent,
    NotPurelyPeriodic,
    ResourceLimit,
)
from .symmetry import smallest_period

_ITERATION_CAP = 10**6


class PeriodicCF:
    """Preperiod plus minimal period of partial quotients.

    Invariants: the period is primitive (not a repetition of a shorter
    word) and consists of integers >= 1; the preperiod is minimal (its
    last letter cannot be absorbed into a rotation of the period); every
    preperiod letter after the first is >= 1.
    """

    __slots__ = ("preperiod", "period")

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(self, preperiod, period):
        preperiod = tuple(preperiod)
        period = tuple(period)
        _check_letters(preperiod, period)
        if smallest_period(period) != len(period):
            raise InvalidPeriod(f"period {period} is a power of a shorter word")
        if preperiod and preperiod[-1] == period[-1]:
            raise InvalidPeriod(
                f"preperiod {preperiod} is not minimal against period {period}"
            )
        self.preperiod = preperiod
        self.period = period

    @classmethod
    def _make(cls, preperiod: tuple[int, ...], period: tuple[int, ...]) -> "PeriodicCF":
        """Trusted constructor for words with the invariants already established."""
        self = object.__new__(cls)
        self.preperiod = preperiod
        self.period = period
        return self

    @classmethod
    def normalized(cls, preperiod, period) -> "PeriodicCF":
        """Build from an arbitrary representation: primitivize, then trim."""
        preperiod = list(preperiod)
        period = list(period)
        _check_letters(preperiod, period)
        period = period[: smallest_period(tuple(period))]
        while preperiod and preperiod[-1] == period[-1]:
            preperiod.pop()
            period = [period[-1]] + period[:-1]
        return cls._make(tuple(preperiod), tuple(period))

    @property
    def preperiod_length(self) -> int:
        return len(self.preperiod)

    @property
    def period_length(self) -> int:
        return len(self.period)

    def is_purely_periodic(self) -> bool:
        return not self.preperiod

    def letters(self, n: int) -> Iterator[int]:
        """First n partial quotients of the full eventually periodic sequence."""
        t = len(self.period)
        for k in range(n):
            if k < len(self.preperiod):
                yield self.preperiod[k]
            else:
                yield self.period[(k - len(self.preperiod)) % t]

    def __eq__(self, other):
        if isinstance(other, PeriodicCF):
            return self.preperiod == other.preperiod and self.period == other.period
        return NotImplemented

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return f"PeriodicCF({list(self.preperiod)}, {list(self.period)})"

    def __str__(self):
        body = ", ".join(str(x) for x in self.period)
        if not self.preperiod:
            return f"[({body})]"
        head = str(self.preperiod[0])
        rest = ", ".join(str(x) for x in self.preperiod[1:])
        middle = f"{rest}, " if rest else ""
        return f"[{head}; {middle}({body})]"

    def to_json(self) -> dict:
        return {"preperiod": list(self.preperiod), "period": list(self.period)}

    @classmethod
    def from_json(cls, data: dict) -> "PeriodicCF":
        return cls.normalized(data["preperiod"], data["period"])


def _check_letters(preperiod, period) -> None:
    if not period:
        raise InvalidPeriod("period must be nonempty")
    if any(x < 1 for x in period):
        raise InvalidPeriod(f"period letters must be >= 1: {period}")
    if any(x < 1 for x in preperiod[1:]):
        raise InvalidPeriod(f"preperiod letters after the first must be >= 1: {preperiod}")


def continuant(letters, p: int = 1, q: int = 0, r: int = 0, s: int = 1) -> tuple[int, int, int, int]:
    """The seed matrix [[p, q], [r, s]] times the product of [[a, 1], [1, 0]] over letters.

    With seed columns (v_{-1} | v_{-2}), the columns after letters a_0..a_k
    are (v_k | v_{k-1}) for the recurrence v_k = v_{k-2} + a_k * v_{k-1}:
    the convergents of a continued fraction and the vertices of a sail.
    """
    for a in letters:
        p, q, r, s = p * a + q, p, r * a + s, r
    return p, q, r, s


class Convergent(NamedTuple):
    """Numerator/denominator pair p/q of a continued-fraction truncation."""

    p: int
    q: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"


def _quotient_walk(alpha: QuadraticSurd):
    """Run the complete-quotient iteration until the first repeated state.

    Returns (letters, states, cycle_start) where states[k] is the canonical
    (a, b, c) triple of the k-th complete quotient and letters[k] its integer
    part; states[cycle_start:] is the cycle.
    """
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    seen: dict[tuple[int, int, int], int] = {}
    letters: list[int] = []
    states: list[tuple[int, int, int]] = []
    seen_get, push_letter, push_state = seen.get, letters.append, states.append
    _gcd, _isqrt = gcd, isqrt
    bbd = b * b * d
    count = 0
    while True:
        key = (a, b, c)
        hit = seen_get(key)
        if hit is not None:
            return letters, states, hit
        seen[key] = count
        push_state(key)
        m = _isqrt(bbd) if b > 0 else -_isqrt(bbd) - 1
        n = (a + m) // c
        push_letter(n)
        u = a - n * c
        e = u * u - bbd
        a2, b2, c2 = c * u, -c * b, e
        if c2 < 0:
            a2, b2, c2 = -a2, -b2, -c2
        g = _gcd(a2, b2, c2)
        a, b, c = a2 // g, b2 // g, c2 // g
        bbd = b * b * d
        count += 1
        if count > _ITERATION_CAP:
            raise ResourceLimit(
                f"no period found for {alpha!r} within the limit of {_ITERATION_CAP} steps"
            )


def expand(alpha: QuadraticSurd) -> PeriodicCF:
    """Continued-fraction expansion with exact minimal period detection."""
    return _expansion_and_cycle(alpha)[0]


def _expansion_and_cycle(alpha: QuadraticSurd) -> tuple[PeriodicCF, list[tuple[int, int, int]]]:
    """The expansion of alpha and the state keys of its cycle in period order, from one walk."""
    letters, states, start = _quotient_walk(alpha)
    # The first repeated state makes the period primitive.  Equal last letters of
    # the preperiod and the period would make the state one step earlier repeat.
    return PeriodicCF._make(tuple(letters[:start]), tuple(letters[start:])), states[start:]


def complete_quotient_cycle(alpha: QuadraticSurd) -> list[QuadraticSurd]:
    """The cyclically ordered reduced complete quotients of the expansion."""
    d = alpha.d
    return [QuadraticSurd._make(a, b, c, d) for (a, b, c) in _expansion_and_cycle(alpha)[1]]


def value(cf: PeriodicCF) -> QuadraticSurd:
    """Exact value of a periodic continued fraction.

    The purely periodic tail is the unique reduced root of the fixed-point
    quadratic of the period word's continuant matrix; the preperiod is then
    applied one letter at a time.
    """
    p, q, r, s = continuant(cf.period)
    # fixed point of x -> (p x + q)/(r x + s):  r x^2 + (s - p) x - q = 0
    plus = QuadraticSurd.from_root(r, s - p, -q, larger=True)
    if plus.is_reduced():
        x = plus
    else:
        x = QuadraticSurd.from_root(r, s - p, -q, larger=False)
        if not x.is_reduced():
            raise InternalInvariantError(
                f"no reduced root for period {cf.period}"
            )
    a, b, c, d = x.a, x.b, x.c, x.d
    for letter in reversed(cf.preperiod):
        # x -> letter + 1/x on the raw canonical triple
        e = a * a - b * b * d
        a, b, c = letter * e + c * a, -c * b, e
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
    return QuadraticSurd._make(a, b, c, d)


def convergents(cf: PeriodicCF, n: int) -> list[Convergent]:
    """First n convergents p_k/q_k via the standard two-term recurrence."""
    if n < 1:
        raise ValueError("need at least one convergent")
    out: list[Convergent] = []
    m = (1, 0, 0, 1)  # columns (p_{-1}, q_{-1}) | (p_{-2}, q_{-2})
    for a in cf.letters(n):
        m = continuant((a,), *m)
        out.append(Convergent(m[0], m[2]))
    return out


def galois_reverse(alpha: QuadraticSurd) -> tuple[PeriodicCF, PeriodicCF]:
    """Pair (expansion of alpha, expansion of -1/conjugate), checked to be reversals.

    Requires alpha reduced, i.e. purely periodic.
    """
    if not alpha.is_reduced():
        raise NotPurelyPeriodic(f"{alpha} is not reduced")
    forward = expand(alpha)
    mirror = expand(-1 / alpha.conjugate())
    ok = (
        not forward.preperiod
        and not mirror.preperiod
        and mirror.period == tuple(reversed(forward.period))
    )
    if not ok:
        raise InternalInvariantError(
            f"reversal law failed for {alpha}: {forward} vs {mirror}"
        )
    return forward, mirror


def serret_equivalent(alpha: QuadraticSurd, omega: QuadraticSurd) -> bool:
    """True iff the continued-fraction tails of the two surds coincide.

    Equivalently: some complete quotient of one equals, exactly, a complete
    quotient of the other; the two reduced cycles are then identical.
    """
    if alpha.d != omega.d:
        return False
    return not set(_expansion_and_cycle(alpha)[1]).isdisjoint(_expansion_and_cycle(omega)[1])


def _quotient_matrices(alpha: QuadraticSurd):
    """Pairs (state_key, M) with alpha = mobius(M, complete quotient at state)."""
    letters, states, _start = _quotient_walk(alpha)
    m = (1, 0, 0, 1)
    out = []
    for key, a in zip(states, letters):
        out.append((key, UnimodularMatrix(*m)))
        m = continuant((a,), *m)
    return out


def serret_matrix(alpha: QuadraticSurd, omega: QuadraticSurd) -> UnimodularMatrix:
    """A matrix A with det +-1 and mobius(A, omega) = alpha, via the shared tail."""
    if alpha.d == omega.d:
        omega_index = dict(_quotient_matrices(omega))
        for key, m_alpha in _quotient_matrices(alpha):
            m_omega = omega_index.get(key)
            if m_omega is not None:
                result = m_alpha @ m_omega.inverse()
                if result.mobius(omega) != alpha:
                    raise InternalInvariantError(
                        f"tail composition failed for {alpha}, {omega}"
                    )
                return result
    # a shared complete quotient exists exactly when the tails coincide
    raise NotEquivalent(f"{alpha} and {omega} have different tails")
