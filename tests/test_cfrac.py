import random
import time
from fractions import Fraction
from math import gcd, isqrt

import pytest

from surd_sails import cfrac
from surd_sails.arith import QuadraticSurd, UnimodularMatrix, sqrt_of, surd
from surd_sails.cfrac import (
    PeriodicCF,
    complete_quotient_cycle,
    continuant,
    convergents,
    expand,
    galois_reverse,
    serret_equivalent,
    serret_matrix,
    value,
)
from surd_sails.errors import InvalidPeriod, NotEquivalent, NotPurelyPeriodic, ResourceLimit

from conftest import canonical_tuples, float_value, random_canonical_surd

PHI = QuadraticSurd(1, 1, 2, 5)
SQRT2 = sqrt_of(2)
SQRT3 = sqrt_of(3)


class TestPeriodicCF:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidPeriod):
            PeriodicCF((), ())
        with pytest.raises(InvalidPeriod):
            PeriodicCF((), (0,))
        with pytest.raises(InvalidPeriod):
            PeriodicCF((1, 0), (2,))
        with pytest.raises(InvalidPeriod):
            PeriodicCF((), (1, 2, 1, 2))  # power of a shorter word
        with pytest.raises(InvalidPeriod):
            PeriodicCF((1,), (2, 1))  # absorbable last preperiod letter

    def test_negative_leading_letter_allowed(self):
        cf = PeriodicCF((-2, 1), (2,))
        assert cf.preperiod == (-2, 1)

    def test_normalized(self):
        cf = PeriodicCF.normalized([1], [2, 1])
        assert (cf.preperiod, cf.period) == ((), (1, 2))
        cf = PeriodicCF.normalized([3], [1, 2, 1, 2])
        assert (cf.preperiod, cf.period) == ((3,), (1, 2))

    def test_text_and_json(self):
        assert str(PeriodicCF((1,), (2,))) == "[1; (2)]"
        assert str(PeriodicCF((), (1, 2))) == "[(1, 2)]"
        assert str(PeriodicCF((4, 1), (3,))) == "[4; 1, (3)]"
        cf = PeriodicCF((1,), (2, 3))
        assert PeriodicCF.from_json(cf.to_json()) == cf

    def test_letters_stream(self):
        cf = PeriodicCF((7,), (1, 2))
        assert list(cf.letters(6)) == [7, 1, 2, 1, 2, 1]


class TestExpand:
    def test_golden_ratio(self):
        assert expand(PHI) == PeriodicCF((), (1,))

    def test_sqrt2(self):
        assert expand(SQRT2) == PeriodicCF((1,), (2,))

    def test_unit_period_single(self):
        # larger root of x^2 - 3x - 1 has the one-letter period (3)
        alpha = QuadraticSurd.from_root(1, -3, -1)
        assert expand(alpha) == PeriodicCF((), (3,))

    def test_sqrt19(self):
        assert expand(sqrt_of(19)) == PeriodicCF((4,), (2, 1, 3, 1, 2, 8))

    def test_negative_surd(self):
        cf = expand(-SQRT2)
        assert cf.preperiod[0] == -2
        assert value(cf) == -SQRT2

    def test_roundtrip_grid(self):
        for d in (2, 3, 5, 7, 19, 31):
            for c in range(1, 8):
                for b in (-3, -1, 1, 2):
                    for a in range(-8, 9):
                        if gcd(a, b, c) != 1:
                            continue
                        alpha = QuadraticSurd(a, b, c, d)
                        assert value(expand(alpha)) == alpha

    def test_walk_output_passes_validation(self):
        # expand builds without normalizing: the validating constructor must
        # accept its preperiod and period as they come
        surds = [sqrt_of(1000007)]
        for d in (2, 3, 5, 19, 31):
            for c in range(1, 7):
                for b in (-2, -1, 1, 3):
                    for a in range(-6, 7):
                        if gcd(a, b, c) == 1:
                            surds.append(QuadraticSurd(a, b, c, d))
        for alpha in surds:
            cf = expand(alpha)
            assert PeriodicCF(cf.preperiod, cf.period) == cf, alpha

    def test_period_primitive_brute_force(self, rng):
        for _ in range(300):
            alpha = random_canonical_surd(rng)
            period = expand(alpha).period
            t = len(period)
            for p in range(1, t):
                if t % p == 0:
                    assert any(period[i] != period[(i + p) % t] for i in range(t))

    def test_letters_positive_after_first(self, rng):
        for _ in range(300):
            alpha = random_canonical_surd(rng)
            cf = expand(alpha)
            assert all(x >= 1 for x in cf.preperiod[1:])
            assert all(x >= 1 for x in cf.period)

    def test_letters_match_euclidean_prefix(self, rng):
        # independent oracle: run the plain Euclidean algorithm on an exact
        # rational approximation accurate to ~1e-40; the continued fractions
        # of two numbers that close agree while the convergent denominators
        # stay far below 1/sqrt(error)
        from math import isqrt

        scale = 10 ** 40
        for _ in range(150):
            alpha = random_canonical_surd(rng)
            num = alpha.a * scale + alpha.b * isqrt(alpha.d * scale * scale)
            den = alpha.c * scale
            euclid = []
            n, m = num, den
            while m and len(euclid) < 14:
                q, r = divmod(n, m)
                euclid.append(q)
                n, m = m, r
            cf = expand(alpha)
            q1, q2 = 1, 0
            depth = 0
            for a in cf.letters(len(euclid)):
                q1, q2 = q2, a * q2 + q1
                if q2 > 10 ** 15:
                    break
                depth += 1
            assert depth >= 3
            assert list(cf.letters(depth)) == euclid[:depth]

    def test_sqrt_shape_samples(self):
        # preperiod [n], period = palindrome + (2n)
        for r in (2, 3, 5, 6, 7, 8, 10, 13, 19, 31, 46, 94, Fraction(5, 4), Fraction(7, 3)):
            cf = expand(sqrt_of(r))
            assert len(cf.preperiod) == 1
            assert cf.period[-1] == 2 * cf.preperiod[0]
            body = cf.period[:-1]
            assert body == body[::-1]


def reference_walk(alpha):
    """Complete quotients as canonical triples, with the cycle found by a seen-dict.

    Returns (letters, states, start) like the library walk, with states[k] the
    canonical (a, b, c) of the k-th complete quotient.
    """
    a, b, c, d = alpha.a, alpha.b, alpha.c, alpha.d
    seen = {}
    letters, states = [], []
    while (a, b, c) not in seen:
        seen[a, b, c] = len(states)
        states.append((a, b, c))
        bbd = b * b * d
        n = (a + (isqrt(bbd) if b > 0 else -isqrt(bbd) - 1)) // c
        letters.append(n)
        u = a - n * c
        a, b, c = c * u, -c * b, u * u - bbd
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(a, b, c)
        a, b, c = a // g, b // g, c // g
    return letters, states, seen[a, b, c]


class TestWalk:
    def check_against_reference(self, alpha):
        letters, states, start, root = cfrac._quotient_walk(alpha)
        ref_letters, ref_states, ref_start = reference_walk(alpha)
        assert (letters, start) == (ref_letters, ref_start), alpha
        surds = [QuadraticSurd._reduce(p, root, q, alpha.d) for p, q in states]
        assert [(x.a, x.b, x.c) for x in surds] == ref_states, alpha
        # the least multiplier keeps D = root^2 d within the discriminant
        D = root * root * alpha.d
        assert D <= alpha.discriminant(), alpha
        # the cycle loop's floor (P + s) // Q needs Q > 0: every cycle state is
        # reduced, no preperiod state is, and one more step closes the cycle
        s = isqrt(D)
        reduced = [P <= s and s - P < Q <= s + P for P, Q in states]
        assert reduced == [False] * start + [True] * (len(states) - start), alpha
        P, Q = states[-1]
        P = (P + s) // Q * Q - P
        assert (P, (D - P * P) // Q) == states[start], alpha
        return states

    def test_matches_reference_on_box_sample(self, rng):
        box = list(canonical_tuples())
        negative_q = 0
        for a, b, c, d in rng.sample(box, 3000):
            states = self.check_against_reference(QuadraticSurd(a, b, c, d))
            negative_q += any(q < 0 for _p, q in states)
        assert negative_q > 1000  # b < 0 gives preperiod states with Q < 0

    def test_matches_reference_on_long_words(self):
        period = expand(sqrt_of(1000000007)).period
        for alpha in (sqrt_of(1000007), value(PeriodicCF((7,) * 400, period))):
            self.check_against_reference(alpha)

    def test_walk_limit_boundary(self, monkeypatch):
        # sqrt(19) = [4; (2, 1, 3, 1, 2, 8)] has seven states
        monkeypatch.setattr(cfrac, "_ITERATION_CAP", 7)
        assert expand(sqrt_of(19)) == PeriodicCF((4,), (2, 1, 3, 1, 2, 8))
        monkeypatch.setattr(cfrac, "_ITERATION_CAP", 6)
        with pytest.raises(ResourceLimit, match="limit of 6 steps"):
            expand(sqrt_of(19))

    def test_walk_limit_in_both_phases(self, monkeypatch):
        # (3196 - sqrt(19))/447 = [7; 7, 7, (2, 1, 3, 1, 2, 8)]: three preperiod
        # states, then six cycle states
        cf = PeriodicCF((7, 7, 7), (2, 1, 3, 1, 2, 8))
        alpha = value(cf)
        assert alpha == QuadraticSurd(3196, -1, 447, 19)
        _letters, states, start, _root = cfrac._quotient_walk(alpha)
        assert (len(states), start) == (9, 3)
        monkeypatch.setattr(cfrac, "_ITERATION_CAP", 9)
        assert expand(alpha) == cf
        for cap in (8, 3, 2):  # in the cycle; the first cycle state; in the preperiod
            monkeypatch.setattr(cfrac, "_ITERATION_CAP", cap)
            with pytest.raises(ResourceLimit, match=f"limit of {cap} steps"):
                expand(alpha)


def reference_continuant(letters, p=1, q=0, r=0, s=1):
    """The letter-by-letter continuant loop, kept as the reference for the product tree."""
    for a in letters:
        p, q, r, s = p * a + q, p, r * a + s, r
    return p, q, r, s


class TestContinuant:
    def random_seed(self, rng):
        bound = rng.choice((3, 10**12))
        return tuple(rng.randint(-bound, bound) for _ in range(4))

    def test_matches_loop_at_every_length(self, rng):
        # 0..300 letters crosses the leaf size and several levels of the tree
        for n in range(301):
            bound = rng.choice((3, 1000))
            letters = [rng.randint(1, bound) for _ in range(n)]
            if letters:
                letters[0] = rng.randint(-5, 5)  # a preperiod's first letter may be <= 0
            seed = self.random_seed(rng)
            for word in (letters, tuple(letters)):
                assert continuant(word) == reference_continuant(letters), n
                assert continuant(word, *seed) == reference_continuant(letters, *seed), (n, seed)

    def test_one_letter_steps(self, rng):
        # convergents and the sail chain extend a running matrix one letter at a time
        m = ref = (1, 0, 0, 1)
        for _ in range(200):
            a = rng.randint(1, 50)
            m, ref = continuant((a,), *m), reference_continuant((a,), *ref)
            assert m == ref

    def test_long_word_is_fast(self):
        rng = random.Random(50000)
        letters = [rng.randint(1, 100) for _ in range(50000)]
        start = time.perf_counter()
        result = continuant(letters)
        elapsed = time.perf_counter() - start
        assert result == reference_continuant(letters)
        assert elapsed < 1.0, elapsed


class TestValue:
    def test_single_letter(self):
        assert value(PeriodicCF((), (1,))) == PHI

    def test_unit_period_family(self):
        for q in (1, 2, 3, 7, 11):
            v = value(PeriodicCF((), (q,)))
            assert v == QuadraticSurd.from_root(1, -q, -1)

    def test_shifted_unit_family(self):
        # value of the pure period (q, 1), plus 1, is the larger root of
        # x^2 - (q+2)x + 1
        for q in (2, 3, 5, 10):
            v = value(PeriodicCF((), (q, 1))) + 1
            assert v == QuadraticSurd.from_root(1, -(q + 2), 1)

    def test_long_period_roundtrip_is_fast(self):
        # period 377,066: the continuant of the period is the whole cost of value
        alpha = QuadraticSurd(-195, 2, 1646, 21673543)
        cf = expand(alpha)
        assert len(cf.period) == 377066
        start = time.perf_counter()
        result = value(cf)
        elapsed = time.perf_counter() - start
        assert result == alpha
        assert elapsed < 2.0, elapsed

    def test_reduced_root_selection(self, rng):
        for _ in range(200):
            alpha = random_canonical_surd(rng, d_max=50)
            cf = expand(alpha)
            tail = value(PeriodicCF((), cf.period))
            assert tail.is_reduced()


class TestConvergents:
    def test_sqrt2(self):
        cs = convergents(expand(SQRT2), 4)
        assert [(c.p, c.q) for c in cs] == [(1, 1), (3, 2), (7, 5), (17, 12)]

    def test_golden(self):
        cs = convergents(expand(PHI), 5)
        assert [(c.p, c.q) for c in cs] == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]

    def test_first_is_integer_part(self, rng):
        for _ in range(50):
            alpha = random_canonical_surd(rng)
            (c,) = convergents(expand(alpha), 1)
            assert (c.p, c.q) == (alpha.floor(), 1)

    def test_determinant_identity(self, rng):
        for _ in range(100):
            alpha = random_canonical_surd(rng)
            cs = convergents(expand(alpha), 12)
            for k in range(1, len(cs)):
                det = cs[k].p * cs[k - 1].q - cs[k - 1].p * cs[k].q
                assert det == (-1) ** (k - 1)

    def test_coprime_and_improving(self, rng):
        for _ in range(60):
            alpha = random_canonical_surd(rng)
            cs = convergents(expand(alpha), 10)
            x = float_value(alpha)
            errors = [abs(x - c.p / c.q) for c in cs]
            assert all(gcd(c.p, c.q) == 1 for c in cs)
            assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))


class TestCompleteQuotients:
    def test_golden(self):
        assert complete_quotient_cycle(PHI) == [PHI]

    def test_sqrt2(self):
        assert complete_quotient_cycle(SQRT2) == [1 + SQRT2]

    def test_sqrt3(self):
        cycle = complete_quotient_cycle(SQRT3)
        assert set(cycle) == {1 + SQRT3, (1 + SQRT3) / 2}
        assert len(cycle) == 2

    def test_all_reduced_and_matches_period(self, rng):
        for _ in range(200):
            alpha = random_canonical_surd(rng)
            cycle = complete_quotient_cycle(alpha)
            assert all(x.is_reduced() for x in cycle)
            assert len(cycle) == expand(alpha).period_length

    def test_purely_periodic_iff_reduced(self, rng):
        for _ in range(500):
            alpha = random_canonical_surd(rng)
            assert expand(alpha).is_purely_periodic() == alpha.is_reduced()


class TestGalois:
    def test_golden(self):
        fwd, rev = galois_reverse(PHI)
        assert fwd.period == rev.period == (1,)

    def test_one_plus_sqrt3(self):
        fwd, rev = galois_reverse(1 + SQRT3)
        assert fwd.period == (2, 1)
        assert rev.period == (1, 2)
        assert value(rev) == -1 / (1 + SQRT3).conjugate()

    def test_one_plus_sqrt2(self):
        fwd, rev = galois_reverse(1 + SQRT2)
        assert fwd.period == rev.period == (2,)

    def test_requires_reduced(self):
        with pytest.raises(NotPurelyPeriodic):
            galois_reverse(SQRT2)

    def test_random_reduced(self, rng):
        seen = 0
        while seen < 100:
            alpha = random_canonical_surd(rng)
            if not alpha.is_reduced():
                continue
            seen += 1
            fwd, rev = galois_reverse(alpha)
            assert rev.period == tuple(reversed(fwd.period))


class TestSerret:
    def test_examples(self):
        assert serret_equivalent(SQRT2, 1 + SQRT2)
        assert not serret_equivalent(SQRT2, SQRT3)
        assert serret_equivalent(PHI, PHI)

    def test_matrix_identity_for_equal(self):
        assert serret_matrix(PHI, PHI) == UnimodularMatrix.identity()

    def test_matrix_postcondition(self):
        m = serret_matrix(SQRT2, 1 + SQRT2)
        assert abs(m.det) == 1
        assert m.mobius(1 + SQRT2) == SQRT2

    def test_matrix_golden_pair(self):
        omega = surd(3, 1, 2, 5)  # phi + 1
        m = serret_matrix(PHI, omega)
        assert m.mobius(omega) == PHI

    def test_not_equivalent_raises(self):
        with pytest.raises(NotEquivalent):
            serret_matrix(SQRT2, SQRT3)

    def test_matrix_from_first_shared_quotient(self, rng):
        # A = C(alpha's first i letters) C(omega's first j letters)^-1 for the
        # first complete quotient of alpha that omega also reaches
        mats = [UnimodularMatrix(1, 1, 0, 1), UnimodularMatrix(0, 1, 1, 0),
                UnimodularMatrix(3, 2, 4, 3)]
        for _ in range(200):
            alpha = random_canonical_surd(rng, d_max=50)
            omega = rng.choice(mats).mobius(rng.choice(mats).mobius(alpha))
            a_letters, a_states, _ = reference_walk(alpha)
            w_letters, w_states, _ = reference_walk(omega)
            i = next(i for i, x in enumerate(a_states) if x in w_states)
            j = w_states.index(a_states[i])
            m_alpha = UnimodularMatrix(*continuant(a_letters[:i]))
            m_omega = UnimodularMatrix(*continuant(w_letters[:j]))
            assert serret_matrix(alpha, omega) == m_alpha @ m_omega.inverse(), (alpha, omega)

    def test_translates_are_equivalent(self, rng):
        for _ in range(50):
            alpha = random_canonical_surd(rng, d_max=50)
            shifted = alpha + rng.randint(1, 9)
            assert serret_equivalent(alpha, shifted)
            m = serret_matrix(alpha, shifted)
            assert m.mobius(shifted) == alpha

    def test_equivalence_relation(self, rng):
        # reflexive, symmetric, transitive over a pool with shared tails
        pool = []
        for d in (2, 5, 13):
            base = sqrt_of(d)
            pool += [base, 1 + base, 1 / base, (1 + base) / 2]
        for x in pool:
            assert serret_equivalent(x, x)
            for y in pool:
                assert serret_equivalent(x, y) == serret_equivalent(y, x)
                for z in pool:
                    if serret_equivalent(x, y) and serret_equivalent(y, z):
                        assert serret_equivalent(x, z)

    def test_mobius_images_equivalent(self, rng):
        mats = [UnimodularMatrix(1, 1, 0, 1), UnimodularMatrix(0, 1, 1, 0),
                UnimodularMatrix(3, 2, 4, 3), UnimodularMatrix(2, 1, 1, 1)]
        for _ in range(50):
            alpha = random_canonical_surd(rng, d_max=50)
            m = rng.choice(mats)
            assert serret_equivalent(alpha, m.mobius(alpha))
