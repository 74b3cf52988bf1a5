"""Classification of symmetric periods.

A quadratic surd's period is a cyclic palindrome exactly when one of four
trace/norm conditions holds for some equivalent surd omega:

    (a)  omega + conjugate = 0        (even center)
    (b)  omega + conjugate = 1        (odd center)
    (c)  omega * conjugate = 1        (odd center; equivalent to (b))
    (d)  omega * conjugate = -1       (gap center)

Each flag is certified constructively.  The center positions are solved mod
t from the period's one reflection.  The period word is rotated so the center
sits at letter 0, and a seed S specific to the case is extended over two
periods into the period map S K K S^-1, integer products with K the
continuant of one period.  omega = (J S)(x), J the swap, is one integer
Moebius image of the complete quotient x of alpha that starts at the center,
so it is equivalent to alpha by construction; the case's equation and omega's
being a fixed slope of the period map are checked as integer identities.  The
certificate is an involution that exchanges the two cone lines exactly when
the case's equation holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Mapping, NamedTuple

from .arith import QuadraticSurd, UnimodularMatrix, _inverse, _product, sqrt_of
from .cfrac import PeriodicCF, _expansion_and_cycle, continuant, expand
from .errors import (
    IncompatibleCenter,
    InternalInvariantError,
    ShapeViolation,
)
from .symmetry import Center, CenterKind, CyclicWord, _centers, is_regular_palindrome, shape_decompose

_KIND_FLAGS = {
    CenterKind.EVEN_ELEMENT: ("a",),
    CenterKind.ODD_ELEMENT: ("b", "c"),
    CenterKind.GAP: ("d",),
}

_FLAG_KIND = {flag: kind for kind, flags in _KIND_FLAGS.items() for flag in flags}

# involutions exchanging the two cone lines in each case
_CERTIFICATES = {
    "a": UnimodularMatrix(1, 0, 0, -1),
    "b": UnimodularMatrix(1, 0, 1, -1),
    "c": UnimodularMatrix(0, 1, 1, 0),
    "d": UnimodularMatrix(0, -1, 1, 0),
}


class Witness(NamedTuple):
    """Equivalent surd realizing one criterion case, with its certificate."""

    omega: QuadraticSurd
    certificate: UnimodularMatrix
    period_map: UnimodularMatrix

    def to_json(self) -> dict:
        return {
            "omega": str(self.omega),
            "trace": str(self.omega.trace()),
            "norm": str(self.omega.norm()),
            "certificate": [list(r) for r in self.certificate.rows()],
            "period_map": [list(r) for r in self.period_map.rows()],
        }


class Classification(NamedTuple):
    surd: QuadraticSurd
    cf: PeriodicCF
    centers: tuple[Center, ...]
    flags: frozenset[str]
    witnesses: Mapping[str, Witness]

    def to_json(self) -> dict:
        return {
            "surd": str(self.surd),
            "preperiod": list(self.cf.preperiod),
            "period": list(self.cf.period),
            "flags": sorted(self.flags),
            "centers": [c.to_json() for c in self.centers],
            "witnesses": {f: w.to_json() for f, w in sorted(self.witnesses.items())},
        }


def _seed(flag: str, a0: int) -> tuple[int, int, int, int]:
    """Seed matrix with columns (v_{-1} | v_{-2}) putting the symmetry axis through letter 0.

    The case's seed edge is [v_{-2}, v_0] with v_0 = v_{-2} + a0 * v_{-1}.
    """
    if flag == "a":
        if a0 % 2:
            raise IncompatibleCenter(f"case (a) needs an even center letter, got {a0}")
        return 0, 1, 1, -(a0 // 2)  # v_{-2} = (1, -a0/2), v_{-1} = (0, 1)
    if flag in ("b", "c"):
        if a0 % 2 == 0:
            raise IncompatibleCenter(f"case ({flag}) needs an odd center letter, got {a0}")
        lo, hi = (1 - a0) // 2, (1 + a0) // 2
        if flag == "b":
            return 0, 1, 1, lo  # v_{-2} = (1, lo), v_{-1} = (0, 1)
        return -1, hi, 1, lo  # v_{-2} = (hi, lo), v_{-1} = (-1, 1)
    return 0, 1, 1, 0  # v_{-2} = (1, 0), v_{-1} = (0, 1)


def _witnesses(alpha: QuadraticSurd, period: tuple[int, ...], cycle: list[tuple[int, int]], root: int,
               center: Center, flags: tuple[str, ...]) -> dict[str, Witness]:
    """Witnesses for flags compatible with the center, from alpha's period and cycle states.

    The period is rotated so the center's letter (for a gap, the letter after
    it) is letter 0; its continuant K and K K are integer products taken once
    for all the flags.  The cycle states (P, Q) are alpha's complete quotients
    (P + root sqrt(d))/Q; the one at the center's offset, x, is the purely
    periodic surd of the rotated word, so (x, 1) is the expanding eigenvector
    of K and omega, the slope of S (x, 1), is (J S)(x).  omega is equivalent
    to alpha by construction: x is a complete quotient and J S is unimodular.
    """
    i = (center.position + (center.kind is CenterKind.GAP)) % len(period)  # a gap: the next letter
    rot = period[i:] + period[:i]
    k = continuant(rot)
    kk = _product(k, k)
    P, Q = cycle[i]
    x = QuadraticSurd._reduce(P, root, Q, alpha.d)
    out = {}
    for flag in flags:
        seed = sp, sq, sr, ss = _seed(flag, rot[0])
        # the period map M sends (v_{-2}, v_{-1}) to (v_{2t-2}, v_{2t-1}); with S
        # the seed, the chain's columns are S K K = M S
        period_map = mp, mq, mr, ms = _product(_product(seed, kk), _inverse(seed))
        omega = UnimodularMatrix._make((sr, ss, sp, sq)).mobius(x)  # J S
        a, c = omega.a, omega.c
        n = a * a - omega.b * omega.b * omega.d
        # the case equation: the certificate sends omega to -omega, 1 - omega, 1/omega
        # or -1/omega, so it exchanges omega and its conjugate exactly when this holds
        case = {"a": a == 0, "b": 2 * a == c, "c": n == c * c, "d": n == -c * c}[flag]
        # omega is a fixed slope of M: (c^2, -2ac, n) is proportional to (q, p - s, -r);
        # the first cross product is divided by c > 0
        fixed = c * (mp - ms) == -2 * a * mq and -c * c * mr == n * mq
        if not (case and fixed):
            problem = "is not a fixed slope of its period map" if case else "fails its case equation"
            raise InternalInvariantError(f"witness ({flag}) {omega!r} of {alpha!r} {problem}")
        out[flag] = Witness(omega, _CERTIFICATES[flag], UnimodularMatrix._make(period_map))
    return out


def witness(alpha: QuadraticSurd, flag: str, center: Center) -> Witness:
    """Construct the equivalent surd certifying one flag from its center.

    The period word of alpha is rotated so the fixed letter of the center is
    letter 0 (for a gap center, the gap falls just before letter 0); the
    case's seed edge S is extended over two periods into the period map;
    omega is (J S)(x), x the complete quotient of alpha with the rotated
    period.  The case's equation and omega's being a fixed slope of the
    period map are verified exactly.
    """
    if flag not in _FLAG_KIND:
        raise ValueError(f"unknown flag {flag!r}")
    if _FLAG_KIND[flag] is not center.kind:
        raise IncompatibleCenter(f"flag {flag!r} is incompatible with {center.kind.value} center")
    cf, cycle, root = _expansion_and_cycle(alpha)
    return _witnesses(alpha, cf.period, cycle, root, center, (flag,))[flag]


def classify(alpha: QuadraticSurd) -> Classification:
    """Centers, criterion flags, and witnesses of a surd's period word."""
    cf, cycle, root = _expansion_and_cycle(alpha)
    axis_list = tuple(_centers(cf.period))
    witnesses: dict[str, Witness] = {}
    for center in axis_list:
        flags = _KIND_FLAGS[center.kind]
        if flags[0] not in witnesses:  # the first center of each kind decides
            witnesses.update(_witnesses(alpha, cf.period, cycle, root, center, flags))
    return Classification(alpha, cf, axis_list, frozenset(witnesses), witnesses)


def shape_oracle(alpha: QuadraticSurd) -> frozenset[str]:
    """Flags {a, b, d} read off the period's shape alone.

    A rotation that is a regular palindrome gives d; a palindrome plus one
    even letter gives a; a palindrome plus one odd letter gives b.  This is
    an independent derivation that must agree with classify() on {a, b, d}.
    """
    word = CyclicWord(expand(alpha).period)
    shape = shape_decompose(word)
    flags = set()
    if shape.regular_rotation is not None:
        flags.add("d")
    if shape.even_extra is not None:
        flags.add("a")
    if shape.odd_extra is not None:
        flags.add("b")
    return frozenset(flags)


def sqrt_shape_check(r) -> bool:
    """Verify the expansion shape of sqrt(r) for rational r > 1, not a square.

    The expansion must be a one-letter preperiod [n] followed by a period
    whose last letter is 2n and whose other letters form a regular
    palindrome.  Raises ShapeViolation if the law fails (it never should).
    """
    r = Fraction(r)
    if r <= 1:
        raise ValueError("need r > 1")
    root = sqrt_of(r)  # raises RationalValue when r is a square
    cf = expand(root)
    head, period = cf.preperiod, cf.period
    ok = (
        len(head) == 1
        and period[-1] == 2 * head[0]
        and (len(period) == 1 or is_regular_palindrome(period[:-1]))
    )
    if not ok:
        raise ShapeViolation(f"sqrt({r}) expands to {cf}")
    return True


def unit_period_check(q: int) -> bool:
    """Verify the single- and double-letter period families of quadratic units.

    The larger root of x^2 - q*x - 1 must expand to the pure period (q); the
    larger root of x^2 - (q+2)*x + 1, shifted down by 1, must expand to the
    pure period (q, 1) -- which collapses to (1) when q = 1.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    single = expand(QuadraticSurd.from_root(1, -q, -1))
    if single != PeriodicCF((), (q,)):
        return False
    shifted = expand(QuadraticSurd.from_root(1, -(q + 2), 1) - 1)
    want = PeriodicCF((), (1,)) if q == 1 else PeriodicCF((), (q, 1))
    return shifted == want


def iter_reduced_surds(max_disc: int) -> Iterator[tuple[int, QuadraticSurd]]:
    """All canonical reduced surds of discriminant <= max_disc, as (disc, surd).

    Enumerates primitive triples (A, B, C) with A >= 1, B = -p and
    C = (p^2 - disc)/(4A) whose larger root (p + sqrt(disc))/Q, Q = 2A, is
    reduced: with s = isqrt(disc), exactly when p <= s and s - p < Q <= s + p,
    the test that starts the cycle of the walk.
    """
    for disc in range(5, max_disc + 1):
        if disc % 4 not in (0, 1):
            continue
        s = isqrt(disc)
        if s * s == disc:
            continue
        for qa in range(1, s + 1):
            for p in range(max(1, s - 2 * qa + 1, 2 * qa - s), s + 1):
                num = p * p - disc
                if num % (4 * qa):
                    continue
                qc = num // (4 * qa)
                if gcd(qa, p, qc) != 1:
                    continue
                yield disc, QuadraticSurd(p, 1, 2 * qa, disc)
