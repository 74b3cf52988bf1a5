"""Independent oracle for the benchmark's output checks.

Everything here is classical integer arithmetic on quadratic surds written
as (P + sqrt(D))/Q, and it imports nothing from surd_sails, so a fault in
the library cannot hide in the reference it is checked against:

- the PQa recurrence (Jacobson & Williams, *Solving the Pell Equation*,
  ch. 3) with its own cycle detection on the (P, Q) state;
- enumeration of reduced surds by the classical (P, Q) conditions;
- brute-force cyclic palindromes and the a/b/d shape rules;
- integer trace, norm and Moebius action;
- the trace of a period's continuant matrix.

A surd in the library's canonical form (a + b*sqrt(d))/c is passed around
here as the plain tuple (a, b, c, d).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def pqa_triple(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """(P, Q, D) with (P + sqrt(D))/Q equal to (a + b*sqrt(d))/c and Q | D - P^2."""
    D = b * b * d
    P, Q = (a, c) if b > 0 else (-a, -c)
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    return P, Q, D


def is_reduced(P: int, Q: int, D: int) -> bool:
    """(P + sqrt(D))/Q > 1 with conjugate in (-1, 0), for non-square D."""
    s = isqrt(D)
    return Q > 0 and 0 < P <= s and s - P < Q <= s + P


def pqa(P: int, Q: int, D: int):
    """Expand (P + sqrt(D))/Q by the PQa recurrence.

    Requires D > 0 not a square and Q | D - P^2.  Returns
    (preperiod, period, cycle) where cycle lists the (P, Q) states of the
    period; the cycle closes at the first repeated state, so the preperiod
    and period are both minimal.
    """
    s = isqrt(D)
    if s * s == D:
        raise ValueError(f"{D} is a square")
    if Q == 0 or (D - P * P) % Q:
        raise ValueError(f"Q = {Q} does not divide D - P^2")
    seen: dict[tuple[int, int], int] = {}
    letters: list[int] = []
    states: list[tuple[int, int]] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(letters)
        states.append((P, Q))
        # floor((P + sqrt(D))/Q), exactly, for either sign of Q
        q = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        letters.append(q)
        P = q * Q - P
        Q = (D - P * P) // Q
    k = seen[(P, Q)]
    return tuple(letters[:k]), tuple(letters[k:]), states[k:]


def expand(alpha: tuple[int, int, int, int]):
    """(preperiod, period) of the canonical tuple (a, b, c, d)."""
    pre, per, _cycle = pqa(*pqa_triple(*alpha))
    return pre, per


def minpoly_key(P: int, Q: int, D: int) -> tuple[int, int, int, bool]:
    """Representation-free key of (P + sqrt(D))/Q.

    The primitive minimal polynomial (A, B, C) with A > 0, and whether the
    value is its larger root.
    """
    A, B, C = Q * Q, -2 * P * Q, P * P - D
    g = gcd(A, B, C)
    return A // g, B // g, C // g, Q > 0


def surd_key(alpha: tuple[int, int, int, int]) -> tuple[int, int, int, bool]:
    return minpoly_key(*pqa_triple(*alpha))


def cycle_keys(alpha: tuple[int, int, int, int]) -> frozenset:
    """Keys of the reduced complete quotients of alpha's expansion."""
    P, Q, D = pqa_triple(*alpha)
    _pre, _per, cycle = pqa(P, Q, D)
    return frozenset(minpoly_key(p, q, D) for p, q in cycle)


def reduced_surds(max_disc: int) -> list[tuple[int, int, int]]:
    """Every reduced surd (P + sqrt(D))/Q of discriminant D <= max_disc.

    D runs over non-square discriminants (0 or 1 mod 4); the surd is the
    larger root of the primitive A x^2 + B x + C with A = Q/2, B = -P and
    C = (P^2 - D)/(2Q), and reducedness is 0 < P <= s, s - P < Q <= s + P.
    Returned as (D, P, Q).
    """
    out = []
    for D in range(5, max_disc + 1):
        if D % 4 not in (0, 1):
            continue
        s = isqrt(D)
        if s * s == D:
            continue
        for P in range(1, s + 1):
            for Q in range(s - P + 2 - (s - P) % 2, s + P + 1, 2):
                if (D - P * P) % (2 * Q) == 0 and gcd(Q // 2, P, (P * P - D) // (2 * Q)) == 1:
                    out.append((D, P, Q))
    return out


def discriminant(alpha: tuple[int, int, int, int]) -> int:
    A, B, C, _larger = surd_key(alpha)
    return B * B - 4 * A * C


def is_cyclic_palindrome(word) -> bool:
    """Some rotation of the word equals its reversal (brute force)."""
    w = tuple(word)
    t, doubled, rev = len(w), w + w, w[::-1]
    return any(doubled[i] == rev[0] and doubled[i:i + t] == rev for i in range(t))


def shape_flags(word) -> frozenset[str]:
    """Flags read off the period's shape, by scanning every rotation.

    d: a rotation is a palindrome; a: a rotation is a palindrome followed by
    one even letter; b: the same with one odd letter.  c holds exactly when
    b does.
    """
    w = tuple(word)
    t = len(w)
    fwd = w + w
    back = fwd[::-1]  # the reversal of rotation i is back[t - i:2t - i]
    flags = set()
    for i in range(t):
        j = t - i
        if fwd[i] == back[j] and fwd[i:i + t] == back[j:j + t]:
            flags.add("d")
        # rotation i without its last letter, against its reversal
        if t == 1 or (fwd[i] == back[j + 1] and fwd[i:i + t - 1] == back[j + 1:j + t]):
            flags.add("b" if fwd[i + t - 1] % 2 else "a")
    if "b" in flags:
        flags.add("c")
    return frozenset(flags)


def trace(alpha: tuple[int, int, int, int]) -> Fraction:
    a, _b, c, _d = alpha
    return Fraction(2 * a, c)


def norm(alpha: tuple[int, int, int, int]) -> Fraction:
    a, b, c, d = alpha
    return Fraction(a * a - b * b * d, c * c)


def mobius(m: tuple[int, int, int, int], alpha: tuple[int, int, int, int]):
    """(p x + q)/(r x + s) at x = alpha, as an unreduced (X, Y, Z) = (X + Y sqrt(d))/Z."""
    p, q, r, s = m
    a, b, c, d = alpha
    U, V = p * a + q * c, p * b
    W, Z = r * a + s * c, r * b
    den = W * W - Z * Z * d
    if den == 0:
        raise ZeroDivisionError("Moebius image at the pole")
    return U * W - V * Z * d, V * W - U * Z, den


def same_surd(xyz: tuple[int, int, int], alpha: tuple[int, int, int, int]) -> bool:
    """(X + Y sqrt(d))/Z equals alpha = (a + b sqrt(d))/c."""
    X, Y, Z = xyz
    a, b, c, _d = alpha
    return X * c == a * Z and Y * c == b * Z


def slope_action(m: tuple[int, int, int, int], t: tuple[int, int, int, int]):
    """Slope of the image of the line through (1, t): (r + s t)/(p + q t)."""
    p, q, r, s = m
    return mobius((s, r, q, p), t)


def conjugate(alpha: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = alpha
    return a, -b, c, d


def continuant_trace(period) -> int:
    """Trace of the product of [[a, 1], [1, 0]] over the period, taken
    twice when its length is odd so that the determinant is +1."""
    word = tuple(period) if len(period) % 2 == 0 else tuple(period) * 2
    p, q, r, s = 1, 0, 0, 1
    for a in word:
        p, q, r, s = p * a + q, p, r * a + s, r
    return p + s


def form_of(alpha: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """(a, b, c) of the form c x^2 + 2b xy + a y^2 attached to alpha's
    minimal polynomial A t^2 + B t + C, doubled when B is odd."""
    A, B, C, _larger = surd_key(alpha)
    return (A, B // 2, C) if B % 2 == 0 else (2 * A, B, 2 * C)


def form_image(form: tuple[int, int, int], m: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """(a, b, c) of f(p x + q y, r x + s y) for f = c x^2 + 2b xy + a y^2."""
    a, b, c = form
    p, q, r, s = m

    def f(x, y):
        return c * x * x + 2 * b * x * y + a * y * y

    return f(q, s), c * p * q + b * (p * s + q * r) + a * r * s, f(p, r)


def convergents(letters) -> list[tuple[int, int]]:
    out = []
    p1, p2, q1, q2 = 0, 1, 1, 0
    for a in letters:
        p1, p2 = p2, a * p2 + p1
        q1, q2 = q2, a * q2 + q1
        out.append((p2, q2))
    return out


def sail_chain(period, k_min: int, k_max: int) -> dict[int, tuple[int, int]]:
    """Vertices v_k = v_{k-2} + a_k v_{k-1} from v_{-2} = (1, 0), v_{-1} = (0, 1),
    with a_k = period[k mod t], over k_min <= k <= k_max (k_min >= -2)."""
    t = len(period)
    v = {-2: (1, 0), -1: (0, 1)}
    for k in range(0, k_max + 1):
        a = period[k % t]
        v[k] = (v[k - 2][0] + a * v[k - 1][0], v[k - 2][1] + a * v[k - 1][1])
    return {k: v[k] for k in range(k_min, k_max + 1)}


def squarefree_part(n: int) -> tuple[int, int]:
    """(root, core) with n = root^2 * core and core squarefree, by trial division."""
    root, core, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        root *= p ** (e // 2)
        if e % 2:
            core *= p
        p += 1
    return root, core * n


def canonical(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The canonical tuple of (a + b sqrt(d))/c: c > 0, gcd 1, d squarefree."""
    root, core = squarefree_part(d)
    b *= root
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    return a // g, b // g, c // g, core
