"""Periodic continued fractions of quadratic surds.

Expansion iterates the complete-quotient map x -> 1/(x - floor(x)) as the
PQa recurrence on integer pairs (P, Q), x = (P + sqrt(D))/Q.  By Galois'
theorem the first reduced state starts the period, so period detection is
one integer comparison against that state, never numeric.  The inverse
direction (value) picks the reduced root of the period word's fixed-point
quadratic and applies the preperiod as a fractional-linear map.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .arith import QuadraticSurd, UnimodularMatrix, _inverse, _product
from .errors import (
    InternalInvariantError,
    InvalidPeriod,
    NotEquivalent,
    NotPurelyPeriodic,
    ResourceLimit,
)

_ITERATION_CAP = 10**6
_LEAF = 64  # words up to this many letters take the letter-by-letter loop


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


def smallest_period(word: tuple[int, ...]) -> int:
    """Length of the shortest word whose power is `word`."""
    t = len(word)
    for p in range(1, t):
        if t % p == 0 and all(word[i] == word[(i + p) % t] for i in range(t)):
            return p
    return t


def continuant(letters, p: int = 1, q: int = 0, r: int = 0, s: int = 1) -> tuple[int, int, int, int]:
    """The seed matrix [[p, q], [r, s]] times the product of [[a, 1], [1, 0]] over letters.

    With seed columns (v_{-1} | v_{-2}), the columns after letters a_0..a_k
    are (v_k | v_{k-1}) for the recurrence v_k = v_{k-2} + a_k * v_{k-1}:
    the convergents of a continued fraction and the vertices of a sail.

    Words longer than _LEAF letters are split in half and the halves'
    products multiplied, a balanced product tree.  For n letters of bounded
    size the entries have O(n) digits, so the cost is O(M(n) log n), M(n)
    the cost of one product of n-digit integers: O(n^1.59) with CPython's
    Karatsuba multiplication, against O(n^2) letter by letter.  Shorter
    words take the letter-by-letter loop, which carries the two columns.
    """
    n = len(letters)
    if n > _LEAF:
        h = n // 2
        return _product(continuant(letters[:h], p, q, r, s), continuant(letters[h:]))
    for a in letters:
        q, p = p, p * a + q
        s, r = r, r * a + s
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
    """Run the PQa recurrence on x = (P + sqrt(D))/Q until the cycle closes.

    With alpha = (a + b sqrt(d))/c, the least k making Q divide D - P^2 is
    c / gcd(c, b^2 d - a^2); then root = |b| k, D = root^2 d and
    (P, Q) = +-(a k, c k) with the sign of b.  Each step takes
    n = floor(x), P' = nQ - P, Q' = (D - P'^2)/Q, and Q keeps dividing D - P^2.
    Two phases: the preperiod runs to the first reduced state (P <= s and
    s - P < Q <= s + P for s = isqrt(D)), its floor taking either sign of Q.
    By Galois' theorem that state starts the period; reduced states stay
    reduced, so the cycle phase has Q > 0, n = (P + s) // Q, and closes when P
    and Q recur.  More than _ITERATION_CAP states raise ResourceLimit.

    Returns (letters, states, start, root) where states[k] = (P, Q) is the k-th
    complete quotient (P + root sqrt(d))/Q, letters[k] its integer part and
    states[start:] the cycle.
    """
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    k = c // gcd(c, b * b * d - a * a)
    root = abs(b) * k
    P, Q = (a * k, c * k) if b > 0 else (-a * k, -c * k)
    D = root * root * d
    s = isqrt(D)
    letters: list[int] = []
    states: list[tuple[int, int]] = []
    push_letter, push_state = letters.append, states.append
    cap = _ITERATION_CAP
    # start ends as the preperiod length, or as cap after cap + 1 preperiod states
    for start in range(cap + 1):
        if P <= s and s - P < Q <= s + P:
            break
        push_state((P, Q))
        n = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        push_letter(n)
        P = n * Q - P
        Q = (D - P * P) // Q
    P0, Q0 = P, Q
    for _ in range(cap - start):
        push_state((P, Q))
        n = (P + s) // Q
        push_letter(n)
        P = n * Q - P
        Q = (D - P * P) // Q
        if Q == Q0 and P == P0:
            return letters, states, start, root
    raise ResourceLimit(f"no period found for {alpha!r} within the limit of {cap} steps")


def expand(alpha: QuadraticSurd) -> PeriodicCF:
    """Continued-fraction expansion with exact minimal period detection."""
    return _expansion_and_cycle(alpha)[0]


def _expansion_and_cycle(alpha: QuadraticSurd) -> tuple[PeriodicCF, list[tuple[int, int]], int]:
    """From one walk: the expansion of alpha, its cycle states (P, Q) in period order, and root."""
    letters, states, start, root = _quotient_walk(alpha)
    # The cycle starts at the first reduced state, so the period is primitive.  Equal last
    # letters of the preperiod and the period would make the state before it a cycle state.
    return PeriodicCF._make(tuple(letters[:start]), tuple(letters[start:])), states[start:], root


def _surds(states: list[tuple[int, int]], root: int, d: int) -> list[QuadraticSurd]:
    """Walk states (P, Q) as the canonical surds (P + root sqrt(d))/Q."""
    return [QuadraticSurd._reduce(P, root, Q, d) for P, Q in states]


def complete_quotient_cycle(alpha: QuadraticSurd) -> list[QuadraticSurd]:
    """The cyclically ordered reduced complete quotients of the expansion."""
    _cf, cycle, root = _expansion_and_cycle(alpha)
    return _surds(cycle, root, alpha.d)


def value(cf: PeriodicCF) -> QuadraticSurd:
    """Exact value of a periodic continued fraction.

    The purely periodic tail is the larger root of the fixed-point quadratic
    of the period word's continuant matrix: its letters are >= 1, so the
    continuant's r and q are >= 1 and the two roots have opposite signs.  The
    preperiod is then applied as one fractional-linear map.
    """
    p, q, r, s = continuant(cf.period)
    # fixed point of x -> (p x + q)/(r x + s):  r x^2 + (s - p) x - q = 0
    x = QuadraticSurd.from_root(r, s - p, -q)
    if not x.is_reduced():
        raise InternalInvariantError(f"no reduced root for period {cf.period}")
    return UnimodularMatrix._make(*continuant(cf.preperiod)).mobius(x)


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
    return not set(complete_quotient_cycle(alpha)).isdisjoint(complete_quotient_cycle(omega))


def serret_matrix(alpha: QuadraticSurd, omega: QuadraticSurd) -> UnimodularMatrix:
    """A matrix A with det +-1 and mobius(A, omega) = alpha, via the shared tail.

    With alpha's i-th complete quotient the first that omega also reaches, as
    its j-th, A is C(alpha's first i letters) C(omega's first j letters)^-1 for
    C the continuant.
    """
    if alpha.d == omega.d:
        d = alpha.d
        a_letters, a_states, _, a_root = _quotient_walk(alpha)
        w_letters, w_states, _, w_root = _quotient_walk(omega)
        omega_index = {x: j for j, x in enumerate(_surds(w_states, w_root, d))}
        for i, x in enumerate(_surds(a_states, a_root, d)):
            j = omega_index.get(x)
            if j is not None:
                result = UnimodularMatrix._make(
                    *_product(continuant(a_letters[:i]), _inverse(continuant(w_letters[:j]))))
                if result.mobius(omega) != alpha:
                    raise InternalInvariantError(
                        f"tail composition failed for {alpha}, {omega}"
                    )
                return result
    # a shared complete quotient exists exactly when the tails coincide
    raise NotEquivalent(f"{alpha} and {omega} have different tails")
