from fractions import Fraction
from math import floor

import pytest

from surd_sails.arith import (
    QuadraticSurd,
    UnimodularMatrix,
    _inverse,
    _product,
    mobius,
    sqrt_of,
    squarefree_split,
    surd,
)
from surd_sails.errors import DivisionByZero, RadicandMismatch, RationalValue, ResourceLimit, ZeroDenominator

from conftest import float_value, random_canonical_surd

PHI = QuadraticSurd(1, 1, 2, 5)
SQRT2 = QuadraticSurd(0, 1, 1, 2)


class TestConstruction:
    def test_square_extraction(self):
        # 8 = 4 * 2, then gcd reduction of (2, 4, 2)
        s = surd(2, 2, 2, 8)
        assert s.key() == (1, 2, 1, 2)

    def test_already_canonical(self):
        assert surd(0, 1, 1, 2).key() == (0, 1, 1, 2)

    def test_square_radicand_rejected(self):
        with pytest.raises(RationalValue):
            surd(0, 1, 1, 4)

    def test_zero_b_rejected(self):
        with pytest.raises(RationalValue):
            surd(3, 0, 2, 5)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            surd(1, 1, 0, 5)

    def test_negative_denominator_normalized(self):
        assert surd(1, 1, -2, 5).key() == (-1, -1, 2, 5)

    def test_idempotence(self, rng):
        for _ in range(300):
            s = random_canonical_surd(rng)
            again = QuadraticSurd(s.a, s.b, s.c, s.d)
            assert again == s and again.key() == s.key()

    def test_squarefree_split(self):
        assert squarefree_split(8) == (2, 2)
        assert squarefree_split(1) == (1, 1)
        assert squarefree_split(36) == (6, 1)
        assert squarefree_split(45) == (3, 5)
        # remainder after cube-root trial division: p*q, p^2, p cases
        assert squarefree_split(101 * 103) == (1, 101 * 103)
        assert squarefree_split(101 * 101) == (101, 1)
        assert squarefree_split(4 * 101 * 101 * 7) == (2 * 101, 7)

    def test_squarefree_split_trial_division_limit(self):
        # every n <= 10**18 splits within the divisor limit: its cube root is at most 10**6
        assert squarefree_split(10**18 + 9) == (1, 10**18 + 9)
        assert squarefree_split(999983**2 * 3) == (999983, 3)
        with pytest.raises(ResourceLimit, match="trial division within the limit of 1000000"):
            squarefree_split(10**24 + 7)
        with pytest.raises(ResourceLimit, match="trial division within the limit of 1000000"):
            QuadraticSurd(0, 1, 1, 10**24 + 7)


class TestConjugation:
    def test_examples(self):
        assert PHI.conjugate().key() == (1, -1, 2, 5)
        assert SQRT2.conjugate().key() == (0, -1, 1, 2)
        assert surd(3, 2, 5, 7).conjugate().key() == (3, -2, 5, 7)

    def test_involution(self, rng):
        for _ in range(100):
            s = random_canonical_surd(rng)
            assert s.conjugate().conjugate() == s

    def test_field_automorphism(self, rng):
        # conjugation distributes over every operation (rational results are fixed)
        def conj(v):
            return v.conjugate() if isinstance(v, QuadraticSurd) else v

        for _ in range(100):
            x = random_canonical_surd(rng, d_max=30)
            y = QuadraticSurd(rng.randint(-9, 9), rng.choice([-2, -1, 1, 2]), rng.randint(1, 9), x.d)
            assert conj(x + y) == conj(x) + conj(y)
            assert conj(x - y) == conj(x) - conj(y)
            assert conj(x * y) == conj(x) * conj(y)
            assert conj(x / y) == conj(x) / conj(y)

    def test_trace_norm_invariant_under_conjugation(self, rng):
        for _ in range(100):
            s = random_canonical_surd(rng)
            assert s.trace_norm() == s.conjugate().trace_norm()


class TestTraceNorm:
    def test_examples(self):
        assert PHI.trace_norm() == (Fraction(1), Fraction(-1))
        assert SQRT2.trace_norm() == (Fraction(0), Fraction(-2))
        assert surd(1, 1, 1, 2).trace_norm() == (Fraction(2), Fraction(-1))

    def test_definition(self, rng):
        for _ in range(50):
            s = random_canonical_surd(rng)
            t, n = s.trace_norm()
            assert t == Fraction(2 * s.a, s.c)
            assert n == Fraction(s.a ** 2 - s.b ** 2 * s.d, s.c ** 2)


class TestCompare:
    def test_examples(self):
        assert SQRT2.compare(Fraction(3, 2)) < 0
        assert SQRT2.compare(1) > 0
        assert PHI.compare(2) < 0

    def test_floats_agree(self, rng):
        for _ in range(500):
            s = random_canonical_surd(rng, a_max=1000, b_max=1000, c_max=1000, d_max=1000)
            x = Fraction(rng.randint(-4000, 4000), rng.randint(1, 1000))
            fs, fx = float_value(s), float(x)
            if abs(fs - fx) > 1e-6 * max(1.0, abs(fs), abs(fx)):
                assert s.compare(x) == (1 if fs > fx else -1)

    def test_total_order_on_surds(self, rng):
        sample = [random_canonical_surd(rng, d_max=300) for _ in range(60)]
        for x in sample:
            for y in sample:
                assert (x < y) + (x == y) + (y < x) == 1
        by_exact = sorted(sample)
        floats = [float_value(s) for s in by_exact]
        assert floats == sorted(floats)

    def test_mixed_radicand_order(self):
        assert surd(0, 1, 1, 2) < surd(0, 1, 1, 3)
        assert surd(1, 1, 1, 2) > surd(0, 1, 1, 5)  # 2.414... > 2.236...
        assert surd(0, 5, 1, 2) > surd(0, 1, 1, 3) + 5  # 7.07... > 6.73...


class TestFloor:
    def test_examples(self):
        assert SQRT2.floor() == 1
        assert surd(3, 1, 5, 19).floor() == 1
        assert (-SQRT2).floor() == -2
        assert floor(PHI) == 1

    def test_bracketing(self, rng):
        for _ in range(10_000):
            s = random_canonical_surd(rng)
            n = s.floor()
            assert n <= s < n + 1


class TestArithmetic:
    def test_demotion_to_rational(self):
        prod = (1 + SQRT2) * (-1 + SQRT2)
        assert isinstance(prod, Fraction) and prod == 1

    def test_doubling(self):
        assert (SQRT2 + SQRT2).key() == (0, 2, 1, 2)

    def test_reciprocal(self):
        inv = 1 / (1 + SQRT2)
        assert inv.key() == (-1, 1, 1, 2)
        assert (1 + SQRT2) * inv == 1

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatch):
            SQRT2 + surd(0, 1, 1, 3)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            SQRT2 / 0

    def test_rational_operands(self):
        assert (PHI + Fraction(1, 2)).key() == (2, 1, 2, 5)
        assert (PHI * 2).key() == (1, 1, 1, 5)
        assert (PHI - 1) * PHI == 1  # golden ratio equation

    def test_subtraction(self, rng):
        # surd - x and x - surd are additions of the negation
        for _ in range(200):
            x = random_canonical_surd(rng)
            same_field = QuadraticSurd(rng.randint(-30, 30), rng.choice([-2, -1, 1, 2]), rng.randint(1, 30), x.d)
            others = [rng.randint(-30, 30), Fraction(rng.randint(-30, 30), rng.randint(1, 30)), same_field]
            for y in others:
                fy = float(y) if not isinstance(y, QuadraticSurd) else float_value(y)
                for diff, want in ((x - y, float_value(x) - fy), (y - x, fy - float_value(x))):
                    got = float(diff) if isinstance(diff, Fraction) else float_value(diff)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (x, y)
            assert isinstance(x - x, Fraction) and x - x == 0
        assert (1 - PHI).key() == (1, -1, 2, 5)
        assert (Fraction(1, 2) - PHI).key() == (0, -1, 2, 5)
        with pytest.raises(RadicandMismatch):
            SQRT2 - surd(0, 1, 1, 3)
        with pytest.raises(RadicandMismatch):
            surd(0, 1, 1, 3) - SQRT2
        with pytest.raises(TypeError):
            SQRT2 - "1"
        with pytest.raises(TypeError):
            "1" - SQRT2

    def test_field_laws(self, rng):
        for _ in range(100):
            d = rng.choice([2, 3, 5, 7])
            xs = [QuadraticSurd(rng.randint(-9, 9), rng.choice([-3, -1, 1, 3]), rng.randint(1, 9), d)
                  for _ in range(3)]
            x, y, z = xs
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert (x / y) * y == x


class TestMobius:
    def test_identity(self, rng):
        eye = UnimodularMatrix.identity()
        for _ in range(20):
            s = random_canonical_surd(rng)
            assert eye.mobius(s) == s

    def test_inversion(self):
        swap = UnimodularMatrix(0, 1, 1, 0)
        assert swap.mobius(PHI).key() == (-1, 1, 2, 5)

    def test_translation(self):
        shift = UnimodularMatrix(1, 1, 0, 1)
        assert shift.mobius(SQRT2) == 1 + SQRT2

    def test_group_action(self, rng):
        for _ in range(200):
            mats = []
            while len(mats) < 2:
                p, q, r = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)
                for det in (1, -1):
                    num = det + q * r
                    if p != 0 and num % p == 0:
                        mats.append(UnimodularMatrix(p, q, r, num // p))
                        break
            a, b = mats
            s = random_canonical_surd(rng, d_max=30)
            assert (a @ b).mobius(s) == a.mobius(b.mobius(s))
            assert mobius(a, s) == a.mobius(s)

    def test_inverse_undoes(self, rng):
        m = UnimodularMatrix(3, 2, 4, 3)
        for _ in range(20):
            s = random_canonical_surd(rng)
            assert m.inverse().mobius(m.mobius(s)) == s

    def test_matches_surd_arithmetic(self, rng):
        def surd_mobius(m, x):
            # the action as field arithmetic on surds, zero entries as rationals
            num = x * m.p + m.q if m.p else Fraction(m.q)
            den = x * m.r + m.s if m.r else Fraction(m.s)
            return num / den

        checked = zeros = 0
        while checked < 2000:
            p, q, r, s = (rng.randint(-6, 6) for _ in range(4))
            if p * s - q * r not in (1, -1):
                continue
            m = UnimodularMatrix(p, q, r, s)
            x = random_canonical_surd(rng, d_max=60)
            assert m.mobius(x) == surd_mobius(m, x), (m, x)
            assert m.act_on_slope(x) == surd_mobius(UnimodularMatrix(s, r, q, p), x), (m, x)
            checked += 1
            zeros += 0 in (p, q, r, s)
        assert zeros > 200


class TestUnimodular:
    def test_products_and_inverses_are_unimodular(self, rng):
        # @, inverse and transpose skip the determinant check: the validating constructor
        # must accept every matrix they return
        def random_matrix():
            m = UnimodularMatrix(*rng.choice([(1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, -1)]))
            for _ in range(rng.randint(0, 6)):
                m = m @ UnimodularMatrix(rng.randint(-9, 9), 1, 1, 0)
            return m

        for _ in range(2000):
            a, b = random_matrix(), random_matrix()
            for m in (a @ b, a.inverse(), (a @ b).inverse(), a.transpose()):
                assert m == UnimodularMatrix(m.p, m.q, m.r, m.s)
                assert m.det in (1, -1)
            assert a @ a.inverse() == UnimodularMatrix.identity()

    def test_constructor_checks_determinant(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(2, 0, 0, 1)


class TestReduced:
    def test_examples(self):
        assert PHI.is_reduced()
        assert surd(1, 1, 1, 2).is_reduced()
        assert not SQRT2.is_reduced()

    def test_against_compares(self, rng):
        for _ in range(500):
            s = random_canonical_surd(rng)
            direct = s > 1 and -1 < s.conjugate() < 0
            assert s.is_reduced() == direct


class TestMinimalPolynomial:
    def test_examples(self):
        assert PHI.minimal_polynomial() == (1, -1, -1)
        assert SQRT2.minimal_polynomial() == (1, 0, -2)
        assert surd(3, 1, 5, 19).minimal_polynomial() == (5, -6, -2)

    def test_vanishes(self, rng):
        for _ in range(200):
            s = random_canonical_surd(rng)
            qa, qb, qc = s.minimal_polynomial()
            assert qa > 0
            assert qa * s * s + qb * s + qc == 0

    def test_from_root_roundtrip(self, rng):
        for _ in range(100):
            s = random_canonical_surd(rng)
            qa, qb, qc = s.minimal_polynomial()
            larger = QuadraticSurd.from_root(qa, qb, qc, larger=True)
            smaller = QuadraticSurd.from_root(qa, qb, qc, larger=False)
            assert {larger, smaller} == {s, s.conjugate()}
            assert smaller < larger


class TestMatrix:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(2, 0, 0, 2)

    def test_inverse_and_product(self):
        m = UnimodularMatrix(3, 2, 4, 3)
        assert m @ m.inverse() == UnimodularMatrix.identity()
        assert m.det == 1
        assert UnimodularMatrix(0, 1, 1, 0).det == -1

    def test_apply(self):
        m = UnimodularMatrix(1, 1, 0, 1)
        assert m.apply((1, 2)) == (3, 2)

    def test_one_product_takes_matrices(self):
        m, n = UnimodularMatrix(3, 2, 4, 3), UnimodularMatrix(0, 1, 1, 5)
        assert _product(m, n) == m @ n == (2, 13, 3, 19)
        assert _inverse(m) == m.inverse()


class TestRendering:
    def test_text_forms(self):
        assert str(SQRT2) == "sqrt(2)"
        assert str(PHI) == "(1+sqrt(5))/2"
        assert str(surd(3, -2, 5, 7)) == "(3-2*sqrt(7))/5"
        assert str(surd(0, -1, 1, 2)) == "-sqrt(2)"
        assert str(surd(1, 1, 1, 2)) == "1+sqrt(2)"
        assert str(surd(0, 2, 5, 3)) == "2*sqrt(3)/5"

    def test_sqrt_of(self):
        assert sqrt_of(2) == SQRT2
        assert sqrt_of(Fraction(9, 2)).key() == (0, 3, 2, 2)
        with pytest.raises(RationalValue):
            sqrt_of(Fraction(9, 4))
        with pytest.raises(ValueError):
            sqrt_of(-2)
