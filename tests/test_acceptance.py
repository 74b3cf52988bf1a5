"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Several criteria sweep large exact-arithmetic sets and
take tens of seconds each.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

from surd_sails.arith import QuadraticSurd, UnimodularMatrix
from surd_sails.cfrac import (
    convergents,
    expand,
    galois_reverse,
    serret_equivalent,
    serret_matrix,
    value,
)
from surd_sails.criterion import (
    classify,
    iter_reduced_surds,
    shape_oracle,
    sqrt_shape_check,
    unit_period_check,
)
from surd_sails.errors import InvalidPeriod, RationalValue
from surd_sails.geometry import (
    LatticePoint,
    QuadraticForm,
    det2,
    edge_sprout_bijection,
    integer_angle,
    integer_length,
    korkina_construct,
    lagrange_automorphism,
    sail_from_surd,
    sprout,
)
from surd_sails.symmetry import CyclicWord, CenterKind, centers, shape_decompose

from conftest import canonical_tuples

from test_geometry import (
    parallelogram_points_brute,
    random_sprout_config,
    segment_points_brute,
)


def test_criterion_1_roundtrip():
    """value(expand(alpha)) = alpha exactly over the full canonical box."""
    start = time.time()
    count = 0
    for a, b, c, d in canonical_tuples():
        alpha = QuadraticSurd(a, b, c, d)
        assert value(expand(alpha)) == alpha, (a, b, c, d)
        count += 1
    elapsed = time.time() - start
    print(f"\ncriterion 1: PASS - exact roundtrip on {count} canonical surds "
          f"({elapsed:.1f}s)")
    assert elapsed < 60.0


def test_criterion_2_sqrt_shape():
    """Palindrome-plus-double shape of sqrt(r) for integer and rational r."""
    start = time.time()
    checked = 0
    for r in range(2, 501):
        try:
            assert sqrt_shape_check(r)
            checked += 1
        except RationalValue:
            pass  # perfect square: outside the precondition
    for p in range(2, 31):
        for q in range(1, 31):
            if p <= q or gcd(p, q) != 1:
                continue
            try:
                assert sqrt_shape_check(Fraction(p, q))
                checked += 1
            except RationalValue:
                pass
    print(f"criterion 2: PASS - shape law on {checked} radicands "
          f"({time.time() - start:.1f}s)")


def test_criterion_3_unit_periods():
    """Both quadratic-unit period families for q = 1..200."""
    start = time.time()
    for q in range(1, 201):
        assert unit_period_check(q), q
    print(f"criterion 3: PASS - unit periods q=1..200 ({time.time() - start:.1f}s)")


def test_criterion_4_galois():
    """Pure periodicity = reducedness on the full box; reversal on reduced."""
    start = time.time()
    total = reduced_count = 0
    for a, b, c, d in canonical_tuples():
        alpha = QuadraticSurd(a, b, c, d)
        cf = expand(alpha)
        reduced = alpha.is_reduced()
        assert cf.is_purely_periodic() == reduced, (a, b, c, d)
        total += 1
        if reduced:
            forward, mirror = galois_reverse(alpha)  # raises if reversal fails
            assert mirror.period == tuple(reversed(forward.period))
            reduced_count += 1
    elapsed = time.time() - start
    print(f"criterion 4: PASS - Galois on {total} surds, "
          f"{reduced_count} reduced reversals ({elapsed:.1f}s)")


def test_criterion_5_survey():
    """Main-criterion survey over all reduced surds of discriminant <= 3000."""
    start = time.time()
    count = 0
    flag_sets: dict[str, int] = {}
    for _disc, alpha in iter_reduced_surds(3000):
        result = classify(alpha)
        word = CyclicWord(result.cf.period)
        # (i) flags nonempty <=> cyclic palindromic period
        palindromic = bool(centers(word))
        assert bool(result.flags) == palindromic, alpha
        # (ii) witnesses exact and equivalent, with an explicit tail matrix
        for flag, w in result.witnesses.items():
            trace, norm = w.omega.trace_norm()
            assert {"a": trace == 0, "b": trace == 1,
                    "c": norm == 1, "d": norm == -1}[flag], (alpha, flag)
            assert serret_equivalent(alpha, w.omega), (alpha, flag)
        if result.witnesses:
            first = next(iter(sorted(result.witnesses)))
            carrier = serret_matrix(alpha, result.witnesses[first].omega)
            assert carrier.mobius(result.witnesses[first].omega) == alpha
        # (iii) b <=> c
        assert ("b" in result.flags) == ("c" in result.flags), alpha
        # (iv) independent shape oracle
        assert shape_oracle(alpha) == result.flags & {"a", "b", "d"}, alpha
        key = "".join(sorted(result.flags)) or "-"
        flag_sets[key] = flag_sets.get(key, 0) + 1
        count += 1
    elapsed = time.time() - start
    summary = ", ".join(f"{k}:{v}" for k, v in sorted(flag_sets.items()))
    print(f"criterion 5: PASS - {count} reduced surds, flag sets {summary} "
          f"({elapsed:.1f}s)")
    assert elapsed < 120.0


def test_criterion_6_geometry():
    """Sail/convergent correspondence and the edge-sprout pairing laws."""
    start = time.time()
    sample = []
    for disc_alpha in iter_reduced_surds(3000):
        sample.append(disc_alpha)
        if len(sample) == 100:
            break
    assert len(sample) == 100
    for _disc, alpha in sample:
        even, odd = sail_from_surd(alpha, (-5, 21))
        chain = dict(even.vertices)
        labels = dict(even.labels)
        # vertices match convergents (q_k, p_k)
        cs = convergents(expand(alpha), 21)
        for k in range(0, 21):
            assert chain[k] == (cs[k].q, cs[k].p), (alpha, k)
        # determinant laws with the standard seeds; the window is -5..21
        for k in range(-3, 22):
            assert det2(chain[k - 1], chain[k]) == (-1) ** (k - 1), (alpha, k)
            assert det2(chain[k - 2], chain[k]) == (-1) ** k * labels[k], (alpha, k)
        # edge-sprout pairing: lengths, parallelism, incidence
        pairs = {p.vertex_index: p for p in edge_sprout_bijection(even, odd)}
        assert pairs
        for k, pair in pairs.items():
            root, top = pair.sprout
            e1, e2 = pair.edge
            assert integer_length(root, top) == integer_length(e1, e2) == pair.length
            assert det2(top - root, e2 - e1) == 0
            assert (e1, e2) == (chain[k - 1], chain[k + 1])
            if k - 1 in pairs:
                assert pair.edge[0] == pairs[k - 1].sprout[0]
        # rebuilding from the letters alone gives a unimodular image
        letters = [labels[k] for k in range(1, 13)]
        rebuilt = korkina_construct(
            LatticePoint(1, -1), LatticePoint(1, labels[0] - 1), letters, labels[0])
        v_new = dict(rebuilt.vertices)
        seed_old = UnimodularMatrix(chain[-2].x, chain[-1].x, chain[-2].y, chain[-1].y)
        seed_new = UnimodularMatrix(v_new[-2].x, v_new[-1].x, v_new[-2].y, v_new[-1].y)
        carrier = seed_new @ seed_old.inverse()
        assert abs(carrier.det) == 1
        for k in range(-2, 13):
            assert LatticePoint(*carrier.apply(chain[k])) == v_new[k]
    print(f"criterion 6: PASS - 100 reduced surds, windows -5..21 "
          f"({time.time() - start:.1f}s)")


def test_criterion_7_automorphisms():
    """500 random indefinite forms: automorph postconditions, no failures."""
    start = time.time()
    rng = random.Random(73_2026)
    done = 0
    while done < 500:
        a = rng.randint(1, 40) * rng.choice([1, -1])
        c = -rng.randint(1, 40) * (1 if a > 0 else -1)
        b = rng.randint(-50, 50)
        disc = b * b - a * c
        if disc > 10_000:
            continue
        try:
            form = QuadraticForm(a, b, c)
        except ValueError:
            continue  # square discriminant
        m = lagrange_automorphism(form)  # any exception fails the test
        assert m.det == 1
        assert m != UnimodularMatrix.identity()
        assert min(m.p, m.q, m.r, m.s) >= 0
        assert form.transformed(m) == form
        root = QuadraticSurd(-form.b, 1, form.a, form.discriminant)
        assert m.act_on_slope(root) == root
        done += 1
    print(f"criterion 7: PASS - 500 automorphisms, det 1, nonnegative, "
          f"form-preserving, line-fixing ({time.time() - start:.1f}s)")


def test_criterion_8_palindrome_oracles():
    """Exhaustive cross-check of the cyclic-word machinery, length <= 10."""
    start = time.time()
    words = palindromic = 0
    for length in range(1, 11):
        for letters in product((1, 2, 3), repeat=length):
            try:
                word = CyclicWord(letters)
            except InvalidPeriod:
                continue
            words += 1
            axes = centers(word)
            rev = letters[::-1]
            brute = any(letters[i:] + letters[:i] == rev for i in range(length))
            assert bool(axes) == brute, letters
            if axes:
                palindromic += 1
                assert len(axes) == 2, letters
            shape = shape_decompose(word)
            kinds = {c.kind for c in axes}
            assert (shape.regular_rotation is not None) == (CenterKind.GAP in kinds)
            assert (shape.even_extra is not None) == (CenterKind.EVEN_ELEMENT in kinds)
            assert (shape.odd_extra is not None) == (CenterKind.ODD_ELEMENT in kinds)
    elapsed = time.time() - start
    print(f"criterion 8: PASS - {words} primitive words, {palindromic} palindromic "
          f"({elapsed:.1f}s)")
    assert elapsed < 30.0


def test_criterion_9_lattice_oracles():
    """Brute-force lattice enumeration confirms lengths and sprout interiors."""
    start = time.time()
    rng = random.Random(91_2026)
    for _ in range(200):
        p = LatticePoint(rng.randint(-100, 100), rng.randint(-100, 100))
        q = LatticePoint(rng.randint(-100, 100), rng.randint(-100, 100))
        if p == q:
            continue
        assert integer_length(p, q) == len(segment_points_brute(p, q)) - 1
    for _ in range(200):
        v, u, w, expected = random_sprout_config(rng, scale=24)
        assert max(abs(z) for pt in (v, u, w) for z in pt) <= 100
        root, top = sprout(v, u, w)
        assert integer_length(root, top) == integer_angle(u, v, w) == expected
        interior = parallelogram_points_brute(v, u - v, w - v) - {tuple(u), tuple(w)}
        for x, y in interior:
            assert x * v.y == y * v.x, (v, u, w, (x, y))
            along = x * v.x + y * v.y
            assert along > 0 and along % (v.x ** 2 + v.y ** 2) == 0
    print(f"criterion 9: PASS - 200 segment configs + 200 sprout configs "
          f"({time.time() - start:.1f}s)")
