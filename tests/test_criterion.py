import hashlib
import json
import sys
import time
from fractions import Fraction

import pytest

from surd_sails import cfrac, criterion, geometry
from surd_sails.arith import QuadraticSurd, UnimodularMatrix, sqrt_of
from surd_sails.cfrac import PeriodicCF, expand, serret_equivalent, value
from surd_sails.criterion import (
    _CERTIFICATES,
    _FLAG_KIND,
    classify,
    iter_reduced_surds,
    shape_oracle,
    sqrt_shape_check,
    unit_period_check,
    witness,
)
from surd_sails.errors import IncompatibleCenter, InternalInvariantError, RationalValue
from surd_sails.geometry import QuadraticForm, fixed_line_surds, lagrange_automorphism
from surd_sails.symmetry import Center, CenterKind, CyclicWord, is_cyclic_palindrome

from conftest import LONG_PERIOD_SURDS, random_canonical_surd
from test_cfrac import reference_continuant

PHI = QuadraticSurd(1, 1, 2, 5)
SQRT2 = sqrt_of(2)
SQRT3 = sqrt_of(3)

SWAP = UnimodularMatrix(0, 1, 1, 0)

# periods with flags (a), (b, c, d) and none
SMALL_CASES = [
    (value(PeriodicCF((), (4, 1, 2, 1))), {"a"}),
    (value(PeriodicCF((), (3, 1, 1))), {"b", "c", "d"}),
    (value(PeriodicCF((), (1, 2, 3))), set()),
]


def reference_witnesses(alpha, word, cycle, root, center, flags):
    """Witnesses through the validating CyclicWord and UnimodularMatrix and matrix products."""
    offset = center.position if center.kind is not CenterKind.GAP else center.position + 1
    rot = word.rotated(offset)
    k = UnimodularMatrix(*cfrac.continuant(rot))
    kk = k @ k
    P, Q = cycle[offset % len(cycle)]
    x = QuadraticSurd._reduce(P, root, Q, alpha.d)
    out = {}
    for flag in flags:
        seed_matrix = UnimodularMatrix(*criterion._seed(flag, rot[0]))
        m = seed_matrix @ kk @ seed_matrix.inverse()
        omega = (SWAP @ seed_matrix).mobius(x)
        out[flag] = (omega, _CERTIFICATES[flag], m)
    return out


class TestClassify:
    def test_sqrt3(self):
        result = classify(SQRT3)
        assert result.flags == {"a", "b", "c"}
        assert result.witnesses["a"].omega == SQRT3  # trace 0 witness is sqrt(3) itself
        assert result.witnesses["a"].omega.trace() == 0

    def test_golden_ratio(self):
        result = classify(PHI)
        assert result.flags == {"b", "c", "d"}
        assert result.witnesses["b"].omega.trace() == 1
        assert result.witnesses["c"].omega.norm() == 1
        assert result.witnesses["d"].omega.norm() == -1

    def test_root_of_x2_minus_x_minus_3(self):
        alpha = QuadraticSurd.from_root(1, -1, -3)
        result = classify(alpha)
        assert "b" in result.flags
        assert result.witnesses["b"].omega.trace() == 1

    def test_no_flags_for_asymmetric_period(self):
        alpha = value(PeriodicCF((), (1, 2, 3)))
        result = classify(alpha)
        assert result.flags == frozenset()
        assert result.centers == ()
        assert result.witnesses == {}

    def test_b_iff_c(self):
        for _disc, alpha in iter_reduced_surds(150):
            flags = classify(alpha).flags
            assert ("b" in flags) == ("c" in flags)

    def test_flags_iff_cyclic_palindrome(self):
        for _disc, alpha in iter_reduced_surds(150):
            result = classify(alpha)
            assert bool(result.flags) == is_cyclic_palindrome(CyclicWord(result.cf.period))

    def test_witness_soundness(self):
        for _disc, alpha in iter_reduced_surds(120):
            result = classify(alpha)
            for flag, w in result.witnesses.items():
                trace, norm = w.omega.trace_norm()
                assert {"a": trace == 0, "b": trace == 1,
                        "c": norm == 1, "d": norm == -1}[flag]
                assert serret_equivalent(alpha, w.omega)
                assert w.certificate.act_on_slope(w.omega) == w.omega.conjugate()

    def test_json_schema(self):
        payload = classify(PHI).to_json()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["surd"] == "(1+sqrt(5))/2"
        assert back["period"] == [1]
        assert back["flags"] == ["b", "c", "d"]
        assert {c["kind"] for c in back["centers"]} == {"odd", "gap"}
        assert back["witnesses"]["b"]["trace"] == "1"
        assert back["witnesses"]["d"]["norm"] == "-1"


    def test_witnesses_match_public_witness(self):
        for _disc, alpha in iter_reduced_surds(200):
            result = classify(alpha)
            for flag, w in result.witnesses.items():
                kind = _FLAG_KIND[flag]
                first = next(c for c in result.centers if c.kind is kind)
                assert w == witness(alpha, flag, first)

    def test_golden_json_digest(self):
        # sha256 of the sorted-key JSON of every classification with
        # discriminant <= 3000, concatenated in enumeration order
        digest = hashlib.sha256()
        count = 0
        for _disc, alpha in iter_reduced_surds(3000):
            digest.update(json.dumps(classify(alpha).to_json(), sort_keys=True).encode())
            count += 1
        assert count == 29337
        golden = "2f73599554dee10c6e273c794217dcb070c17b4a5a517d61c70d56971c82888b"
        assert digest.hexdigest() == golden

    def test_long_period_golden_digest(self):
        # the d <= 3000 goldens reach periods of at most 85 letters; these run the
        # continuant's product tree over periods of 800 to 12,352 letters
        assert [len(expand(a).period) for a in LONG_PERIOD_SURDS[:4]] == [12352, 1007, 866, 1116]
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(0)  # sqrt(1000000007)'s period maps pass 4,300 digits
        try:
            digest = hashlib.sha256()
            for alpha in LONG_PERIOD_SURDS:
                digest.update(json.dumps(classify(alpha).to_json(), sort_keys=True).encode())
                digest.update(repr(lagrange_automorphism(QuadraticForm.from_surd(alpha))).encode())
                digest.update(repr(value(expand(alpha))).encode())
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        golden = "eda53d87384eb9c309446f239d0f7927592d90c4508123f2ad5951d87490a105"
        assert digest.hexdigest() == golden

    def test_witnesses_match_reference(self):
        # every center's witnesses, against matrix products of validated objects
        for alpha in [alpha for _disc, alpha in iter_reduced_surds(300)] + LONG_PERIOD_SURDS:
            cf, cycle, root = cfrac._expansion_and_cycle(alpha)
            result = classify(alpha)
            chosen = {}
            for center in result.centers:
                flags = criterion._KIND_FLAGS[center.kind]
                got = criterion._witnesses(alpha, cf.period, cycle, root, center, flags)
                want = reference_witnesses(alpha, CyclicWord(cf.period), cycle, root, center, flags)
                assert {f: (w.omega, w.certificate, w.period_map) for f, w in got.items()} == want
                for flag in flags:
                    chosen.setdefault(flag, want[flag])
            got = {f: (w.omega, w.certificate, w.period_map) for f, w in result.witnesses.items()}
            assert got == chosen, alpha

    def test_period_map_extends_seed_over_two_periods(self):
        # M S = S K K for the seed S and the rotated period's continuant K, against the
        # letter-by-letter continuant and a product written out here
        for alpha in [alpha for _disc, alpha in iter_reduced_surds(300)] + LONG_PERIOD_SURDS:
            result = classify(alpha)
            period = result.cf.period
            for flag, w in result.witnesses.items():
                center = next(c for c in result.centers if c.kind is _FLAG_KIND[flag])
                i = (center.position + (center.kind is CenterKind.GAP)) % len(period)
                rot = period[i:] + period[:i]
                seed = sp, sq, sr, ss = criterion._seed(flag, rot[0])
                (mp, mq), (mr, ms) = w.period_map.rows()
                m_s = mp * sp + mq * sr, mp * sq + mq * ss, mr * sp + ms * sr, mr * sq + ms * ss
                assert m_s == reference_continuant(rot + rot, *seed), (alpha, flag)

    def test_long_period_is_fast(self):
        # period 377,066: the reflection is one linear search, then one continuant per center
        alpha = QuadraticSurd(-195, 2, 1646, 21673543)
        start = time.perf_counter()
        result = classify(alpha)
        elapsed = time.perf_counter() - start
        assert len(result.cf.period) == 377066
        assert result.flags == {"b", "c"}
        odd = CenterKind.ODD_ELEMENT
        assert result.centers == (Center(odd, 184459), Center(odd, 372992))
        assert elapsed < 2.5, elapsed

    @pytest.mark.parametrize("alpha, flags", SMALL_CASES)
    def test_classify_builds_no_validated_word_or_matrix(self, monkeypatch, alpha, flags):
        # the walk's period is primitive with letters >= 1, and the witness identities
        # check every period map, so neither validating constructor runs on this path
        def refuse(self, *args):
            raise AssertionError(f"validating {type(self).__name__} built")

        monkeypatch.setattr(CyclicWord, "__init__", refuse)
        monkeypatch.setattr(UnimodularMatrix, "__init__", refuse)
        result = classify(alpha)
        assert result.flags == flags
        first = {}
        for center in result.centers:
            for flag in criterion._KIND_FLAGS[center.kind]:
                first.setdefault(flag, witness(alpha, flag, center))
        assert first == result.witnesses

    @pytest.mark.parametrize("alpha, flags", SMALL_CASES)
    def test_classify_walks_alpha_once(self, monkeypatch, alpha, flags):
        walked = []
        inner = cfrac._quotient_walk

        def counting_walk(x):
            walked.append(x)
            return inner(x)

        def walks(f, *args):
            walked.clear()
            f(*args)
            return len(walked)

        monkeypatch.setattr(cfrac, "_quotient_walk", counting_walk)
        result = classify(alpha)
        assert result.flags == flags
        # one walk of alpha; each witness is checked against its cycle without a walk
        assert walked == [alpha]
        assert walks(geometry.sail_from_surd, alpha, (-2, 8)) == 1
        assert walks(cfrac.serret_matrix, alpha, alpha + 1) == 2
        assert walks(cfrac.serret_equivalent, alpha, alpha + 1) == 2
        assert walks(cfrac.value, result.cf) == 0


class TestWitness:
    def test_even_center_gives_sqrt2(self):
        alpha = value(PeriodicCF((), (2,)))  # 1 + sqrt(2)
        w = witness(alpha, "a", Center(CenterKind.EVEN_ELEMENT, 0))
        assert w.omega == SQRT2
        # remark: sqrt(2) carries the one-letter preperiod [1] = [a_0 / 2]
        assert expand(w.omega).preperiod == (1,)

    def test_odd_center_gives_golden(self):
        w = witness(PHI, "b", Center(CenterKind.ODD_ELEMENT, 0))
        assert w.omega == PHI
        assert w.period_map.rows() == ((1, 1), (1, 2))

    def test_gap_center_gives_silver(self):
        alpha = value(PeriodicCF((), (2,)))
        w = witness(alpha, "d", Center(CenterKind.GAP, 0))
        assert w.omega == alpha == 1 + SQRT2
        assert w.omega.norm() == -1

    def test_incompatible_center(self):
        with pytest.raises(IncompatibleCenter):
            witness(PHI, "a", Center(CenterKind.ODD_ELEMENT, 0))
        with pytest.raises(IncompatibleCenter):
            # period (1) has an odd letter; an even-element center is a lie
            witness(PHI, "a", Center(CenterKind.EVEN_ELEMENT, 0))
        with pytest.raises(IncompatibleCenter):
            witness(PHI, "d", Center(CenterKind.ODD_ELEMENT, 0))

    def test_rotation_respected(self):
        # sqrt(3) has period (1, 2): the even center sits at position 1
        w = witness(SQRT3, "a", Center(CenterKind.EVEN_ELEMENT, 1))
        assert w.omega == SQRT3

    def test_omega_is_expanding_fixed_slope(self):
        # reference: the expanding root of the period map's fixed-slope quadratic
        surds = [alpha for _disc, alpha in iter_reduced_surds(300)] + [sqrt_of(1000007)]
        for alpha in surds:
            for flag, w in classify(alpha).witnesses.items():
                assert w.omega == fixed_line_surds(w.period_map)[0], (alpha, flag)

    def test_certificate_iff_case_equation(self, rng):
        omegas = [random_canonical_surd(rng) for _ in range(400)]
        omegas += [w.omega for _disc, alpha in iter_reduced_surds(100)
                   for w in classify(alpha).witnesses.values()]
        exchanges = dict.fromkeys(_CERTIFICATES, 0)
        for omega in omegas:
            a, b, c, d = omega.key()
            n = a * a - b * b * d
            case = {"a": a == 0, "b": 2 * a == c, "c": n == c * c, "d": n == -c * c}
            for flag, cert in _CERTIFICATES.items():
                exchanged = cert.act_on_slope(omega) == omega.conjugate()
                assert exchanged == case[flag], (omega, flag)
                exchanges[flag] += exchanged
        assert min(exchanges.values()) > 0

    def test_seeds_are_unimodular(self):
        # omega = (J S)(x) is equivalent to x only for a unimodular seed S
        for a0 in range(1, 200):
            for flag in ("a", "d") if a0 % 2 == 0 else ("b", "c", "d"):
                p, q, r, s = criterion._seed(flag, a0)
                assert p * s - q * r in (1, -1), (flag, a0)

    @pytest.mark.parametrize("alpha", [SQRT3, PHI, sqrt_of(19), sqrt_of(94), sqrt_of(1000007)])
    def test_shifted_seed_is_caught(self, monkeypatch, alpha):
        seed = criterion._seed

        def shifted(flag, a0):
            p, q, r, s = seed(flag, a0)
            return p, q + p, r, s + r  # S [[1, 1], [0, 1]], still unimodular

        monkeypatch.setattr(criterion, "_seed", shifted)
        with pytest.raises(InternalInvariantError, match="case equation") as caught:
            classify(alpha)
        assert repr(alpha) in str(caught.value)

    def test_wrong_period_map_is_caught(self, monkeypatch):
        inner = criterion.continuant
        monkeypatch.setattr(criterion, "continuant",
                            lambda letters, *seed: inner(letters + (1,), *seed))
        with pytest.raises(InternalInvariantError, match="fixed slope"):
            classify(sqrt_of(19))


class TestShapeOracle:
    def test_examples(self):
        assert shape_oracle(SQRT3) == {"a", "b"}
        assert shape_oracle(1 + SQRT2) == {"a", "d"}
        assert shape_oracle(value(PeriodicCF((), (1, 2, 3)))) == frozenset()

    def test_agrees_with_classify(self):
        for _disc, alpha in iter_reduced_surds(150):
            assert shape_oracle(alpha) == classify(alpha).flags & {"a", "b", "d"}


class TestSqrtShape:
    def test_integers(self):
        assert sqrt_shape_check(2)
        assert sqrt_shape_check(19)
        for r in range(2, 60):
            try:
                assert sqrt_shape_check(r)
            except RationalValue:
                pass  # perfect squares lie outside the precondition

    def test_rationals(self):
        assert sqrt_shape_check(Fraction(5, 4))
        assert sqrt_shape_check(Fraction(29, 3))

    def test_square_rejected(self):
        with pytest.raises(RationalValue):
            sqrt_shape_check(9)
        with pytest.raises(ValueError):
            sqrt_shape_check(1)
        with pytest.raises(ValueError):
            sqrt_shape_check(Fraction(1, 2))


class TestUnitPeriods:
    def test_small(self):
        for q in range(1, 30):
            assert unit_period_check(q)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            unit_period_check(0)

    def test_quadratic_integers_have_flags(self):
        # every root of a monic x^2 + Bx + C with positive nonsquare
        # discriminant has a symmetric period
        for qb in range(-8, 9):
            for qc in range(-8, 9):
                disc = qb * qb - 4 * qc
                try:
                    alpha = QuadraticSurd.from_root(1, qb, qc)
                except (ValueError, RationalValue):
                    continue
                assert classify(alpha).flags, f"x^2 + {qb}x + {qc}"


class TestFalsification:
    def test_no_small_witness_when_unflagged(self):
        # converse direction at desk scale: when the period is not a cyclic
        # palindrome, no equivalent surd reachable by a small unimodular
        # matrix satisfies any of the four trace/norm equations
        mats = []
        span = range(-3, 4)
        for p in span:
            for q in span:
                for r in span:
                    for s in span:
                        if p * s - q * r in (1, -1):
                            mats.append(UnimodularMatrix(p, q, r, s))
        checked = 0
        for _disc, alpha in iter_reduced_surds(400):
            if classify(alpha).flags:
                continue
            checked += 1
            for m in mats:
                omega = m.mobius(alpha)
                trace, norm = omega.trace_norm()
                assert trace != 0 and trace != 1, (alpha, m)
                assert norm != 1 and norm != -1, (alpha, m)
        assert checked >= 10


class TestReducedEnumeration:
    def test_all_reduced_and_within_bound(self):
        for disc, alpha in iter_reduced_surds(200):
            assert alpha.is_reduced()
            assert alpha.discriminant() == disc <= 200

    def test_no_duplicates(self):
        surds = [alpha for _d, alpha in iter_reduced_surds(300)]
        assert len(surds) == len(set(surds))

    def test_exhaustive_against_independent_scan(self):
        # every reduced surd found by a plain canonical-tuple sweep must
        # appear in the enumeration
        from math import gcd

        enumerated = {alpha for _d, alpha in iter_reduced_surds(500)}
        for d in (2, 3, 5, 7, 13):
            for c in range(1, 12):
                for b in (1, 2):
                    for a in range(0, 15):
                        if gcd(a, b, c) != 1:
                            continue
                        alpha = QuadraticSurd(a, b, c, d)
                        if alpha.is_reduced() and alpha.discriminant() <= 500:
                            assert alpha in enumerated

    def test_cycle_closure(self):
        # the reduced surds of one discriminant are closed under the
        # complete-quotient step
        from surd_sails.cfrac import complete_quotient_cycle

        by_disc: dict[int, set] = {}
        for disc, alpha in iter_reduced_surds(200):
            by_disc.setdefault(disc, set()).add(alpha)
        for disc, group in by_disc.items():
            for alpha in group:
                assert set(complete_quotient_cycle(alpha)) <= group
