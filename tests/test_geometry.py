import random
import re
import time
import tracemalloc

import pytest

from surd_sails import geometry
from surd_sails.arith import QuadraticSurd, UnimodularMatrix, sqrt_of
from surd_sails.cfrac import convergents, expand
from surd_sails.errors import (
    BadSeed,
    DegenerateAngle,
    DegenerateSegment,
    InternalInvariantError,
    NotAdjacent,
    NotHyperbolic,
    NotUnimodularArms,
    OriginSprout,
    PreconditionViolated,
)
from surd_sails.geometry import (
    LatticePoint,
    QuadraticForm,
    det2,
    edge_sprout_bijection,
    emit_svg,
    fixed_line_surds,
    integer_angle,
    integer_length,
    korkina_construct,
    lagrange_automorphism,
    sail_from_surd,
    sprout,
)

from conftest import random_canonical_surd

P = LatticePoint
PHI = QuadraticSurd(1, 1, 2, 5)
SQRT2 = sqrt_of(2)


def segment_points_brute(p, q):
    """Independent oracle: lattice points on [p, q] by coordinate scanning."""
    (x1, y1), (x2, y2) = p, q
    dx, dy = x2 - x1, y2 - y1
    points = []
    if dx != 0:
        lo, hi = sorted((x1, x2))
        for x in range(lo, hi + 1):
            num = (x - x1) * dy
            if num % dx == 0:
                points.append((x, y1 + num // dx))
    else:
        lo, hi = sorted((y1, y2))
        points = [(x1, y) for y in range(lo, hi + 1)]
    return points


def parallelogram_points_brute(v, e1, e2):
    """All lattice points of {v + s*e1 + t*e2 : s, t in [0, 1]}.

    A point is in the parallelogram iff (det(p-v, e2), det(e1, p-v)) lies in
    [0, D]^2 (up to sign of D = det(e1, e2)); enumerating those index pairs
    and keeping the integral ones lists every lattice point exactly once.
    """
    d = abs(det2(e1, e2))
    points = set()
    for i in range(0, d + 1):
        for j in range(0, d + 1):
            xnum = i * e1.x + j * e2.x
            ynum = i * e1.y + j * e2.y
            if xnum % d == 0 and ynum % d == 0:
                points.add((v.x + xnum // d, v.y + ynum // d))
    return points


def random_sprout_config(rng, scale=30):
    """A genuine sprout configuration: primitive v, arms on opposite sides."""
    while True:
        v = P(rng.randint(-scale, scale), rng.randint(-scale, scale))
        if v != (0, 0) and v.is_primitive():
            break
    # Bezout partner u0 with det(v, u0) = 1
    for x in range(-scale, scale + 1):
        done = False
        for y in range(-scale, scale + 1):
            if det2(v, P(x, y)) == 1:
                u0 = P(x, y)
                done = True
                break
        if done:
            break
    j = rng.randint(1, 3)
    k = rng.randint(max(1, 3 - j), 3)
    u = u0 + v.scaled(j)
    w = -u0 + v.scaled(k)
    return v, u, w, j + k - 2  # sprout [v, (j+k-1)v] has integer length j+k-2


class TestIntegerLength:
    def test_examples(self):
        assert integer_length(P(0, 0), P(4, 6)) == 2
        assert integer_length(P(0, 0), P(1, 0)) == 1
        assert integer_length(P(1, 0), P(4, 0)) == 3

    def test_degenerate(self):
        with pytest.raises(DegenerateSegment):
            integer_length(P(2, 3), P(2, 3))

    def test_brute_force(self, rng):
        for _ in range(300):
            p = P(rng.randint(-100, 100), rng.randint(-100, 100))
            q = P(rng.randint(-100, 100), rng.randint(-100, 100))
            if p == q:
                continue
            assert integer_length(p, q) == len(segment_points_brute(p, q)) - 1


class TestIntegerAngle:
    def test_examples(self):
        assert integer_angle(P(2, 1), P(1, 0), P(3, -1)) == 3
        assert integer_angle(P(1, 1), P(0, 0), P(1, 0)) == 1
        assert integer_angle(P(1, 2), P(0, 0), P(2, 1)) == 3

    def test_errors(self):
        with pytest.raises(DegenerateAngle):
            integer_angle(P(1, 1), P(1, 1), P(2, 0))
        with pytest.raises(DegenerateAngle):
            integer_angle(P(2, 0), P(0, 0), P(-3, 0))

    def test_primitive_arm_reduction(self):
        # arms scaled by any factor leave the angle unchanged
        assert integer_angle(P(4, 2), P(0, 0), P(3, 9)) == integer_angle(P(2, 1), P(0, 0), P(1, 3))


class TestSprout:
    def test_parallelogram_diagonal(self):
        assert sprout(P(1, 0), P(2, 1), P(3, -1)) == (P(1, 0), P(4, 0))

    def test_parallel_arms_rejected(self):
        with pytest.raises(DegenerateAngle):
            sprout(P(0, 1), P(1, 1), P(-1, 1))

    def test_origin_rejected(self):
        with pytest.raises(OriginSprout):
            sprout(P(1, 1), P(1, 0), P(0, 1))

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodularArms):
            sprout(P(1, 0), P(1, 2), P(3, -1))
        # same-side arms: both determinants +1
        with pytest.raises(NotUnimodularArms):
            sprout(P(1, 0), P(0, 1), P(1, 1))

    def test_length_equals_angle(self, rng):
        for _ in range(100):
            v, u, w, expected = random_sprout_config(rng)
            root, top = sprout(v, u, w)
            assert integer_length(root, top) == integer_angle(u, v, w) == expected

    def test_interior_points_are_multiples(self, rng):
        for _ in range(100):
            v, u, w, _m = random_sprout_config(rng, scale=12)
            root, top = sprout(v, u, w)
            pts = parallelogram_points_brute(v, u - v, w - v)
            others = pts - {tuple(u), tuple(w)}
            for x, y in others:
                # positive integer multiple of v
                assert x * v.y == y * v.x
                coord = x * v.x + y * v.y
                assert coord > 0 and coord % (v.x ** 2 + v.y ** 2) == 0


class TestSailFromSurd:
    def test_silver_chain(self):
        even, odd = sail_from_surd(1 + SQRT2, (0, 3))
        chain = dict(even.vertices)
        assert chain == {0: (1, 2), 1: (2, 5), 2: (5, 12), 3: (12, 29)}
        assert even.boundary_vertices() == [(0, P(1, 2)), (2, P(5, 12))]
        assert odd.boundary_vertices() == [(1, P(2, 5)), (3, P(12, 29))]

    def test_golden_chain(self):
        even, _odd = sail_from_surd(PHI, (0, 4))
        assert [tuple(pt) for _k, pt in even.vertices] == [
            (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]

    def test_single_vertex(self):
        even, _odd = sail_from_surd(SQRT2, (0, 0))
        # the window starts at v_0 = (1, a_0) for the reduced representative
        assert even.vertices == ((0, P(1, 2)),)

    def test_vertices_are_convergents(self, rng):
        seen = 0
        while seen < 30:
            alpha = random_canonical_surd(rng, d_max=60)
            if not alpha.is_reduced():
                continue
            seen += 1
            even, _odd = sail_from_surd(alpha, (0, 20))
            cs = convergents(expand(alpha), 21)
            for k in range(21):
                assert even.vertex(k) == (cs[k].q, cs[k].p)

    def test_backward_window(self):
        even, _odd = sail_from_surd(1 + SQRT2, (-6, 2))
        assert even.vertex(-2) == (1, 0)
        assert even.vertex(-1) == (0, 1)
        # backward recurrence inverts the forward one
        for k in range(0, 3):
            assert even.vertex(k) == even.vertex(k - 2) + even.vertex(k - 1).scaled(2)

    def test_windows_are_slices_of_a_wider_window(self):
        alpha = QuadraticSurd(1, 1, 3, 13)
        wide = dict(sail_from_surd(alpha, (-30, 30))[0].vertices)
        for lo, hi in ((5, 9), (-20, -15), (-3, 4), (-2, -1), (-1, 0), (-30, -30), (30, 30)):
            window = sail_from_surd(alpha, (lo, hi))[0].vertices
            assert window == tuple((k, wide[k]) for k in range(lo, hi + 1)), (lo, hi)

    def test_memory_grows_with_the_window_not_its_distance_from_0(self):
        # two vertices 4,000 steps from the seeds; keeping every vertex on the
        # way peaked at about 3.5 MB
        for window in ((4000, 4001), (-4001, -4000)):
            tracemalloc.start()
            try:
                sail_from_surd(SQRT2, window)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 200_000, (window, peak)


class TestKorkina:
    def test_silver_seed(self):
        sail = korkina_construct(P(1, 0), P(1, 2), [2, 2], 2)
        assert dict(sail.vertices)[1] == (2, 5)
        assert dict(sail.vertices)[2] == (5, 12)

    def test_matches_sail_from_surd(self):
        sail = korkina_construct(P(1, 0), P(1, 2), [2, 2, 2], 2)
        even, _odd = sail_from_surd(1 + SQRT2, (-2, 3))
        assert dict(sail.vertices) == dict(even.vertices)

    def test_golden_seed(self):
        sail = korkina_construct(P(1, 0), P(1, 1), [1, 1, 1], 1)
        assert [tuple(pt) for _k, pt in sail.vertices] == [
            (1, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 5)]

    def test_even_center_symmetry(self):
        # seeds symmetric across the horizontal axis; the chain's own-parity
        # vertices map onto each other under diag(1, -1): v_{2m} <-> v_{-2-2m}
        sail = korkina_construct(P(1, -1), P(1, 1), [2] * 4, 2, back_letters=[2] * 4)
        flip = UnimodularMatrix(1, 0, 0, -1)
        ev = {k: pt for k, pt in sail.vertices if k % 2 == 0}
        for k, pt in ev.items():
            if -2 - k in ev:
                assert P(*flip.apply(pt)) == ev[-2 - k]

    def test_bad_seeds(self):
        with pytest.raises(BadSeed):
            korkina_construct(P(1, 0), P(1, 3), [1], 2)  # length is 3, not 2
        with pytest.raises(BadSeed):
            korkina_construct(P(0, 0) - P(-2, 0), P(4, 0), [1], 2)  # v_{-1} not primitive basis
        with pytest.raises(BadSeed):
            korkina_construct(P(1, 0), P(1, 2), [1, 0], 2)  # nonpositive letter

    def test_determinant_laws(self, rng):
        for _ in range(30):
            letters = [rng.randint(1, 4) for _ in range(6)]
            a0 = rng.randint(1, 4)
            sail = korkina_construct(P(1, 0), P(1, a0), letters, a0)
            v = dict(sail.vertices)
            a = dict(sail.labels)
            base = det2(v[-2], v[-1])
            for k in range(0, len(letters) + 1):
                assert det2(v[k - 1], v[k]) == base * (-1) ** (k - 1)
                assert det2(v[k - 2], v[k]) == a[k] * base * (-1) ** k


def reference_chain_laws(v, a):
    """The chain laws with every determinant taken afresh, six per index."""
    for k in sorted(v):
        if k - 1 in v:
            d = det2(v[k - 1], v[k])
            if abs(d) != 1:
                raise InternalInvariantError(f"det(v_{k-1}, v_{k}) = {d}")
            if k - 2 in v and det2(v[k - 2], v[k - 1]) != -d:
                raise InternalInvariantError("determinant sign fails to alternate")
        if k - 2 in v and k in a:
            if det2(v[k - 2], v[k]) != a[k] * det2(v[k - 2], v[k - 1]):
                raise InternalInvariantError(f"edge-length law fails at k = {k}")
        if k - 2 in v and k + 2 in v and k in a and k + 2 in a:
            turn = det2(v[k - 2] - v[k], v[k + 2] - v[k])
            hinge = det2(v[k - 1], v[k + 1])
            if turn != -a[k] * a[k + 2] * hinge:
                raise InternalInvariantError(f"turning law fails at k = {k}")


def chain_law_outcome(check, v, a):
    try:
        check(v, a)
    except (InternalInvariantError, KeyError) as exc:
        return type(exc).__name__, str(exc)
    return None


class TestChainLaws:
    def test_matches_reference_on_gapped_windows(self, rng):
        seen = set()
        for _ in range(400):
            a0 = rng.randint(1, 4)
            letters = [rng.randint(1, 4) for _ in range(8)]
            back = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
            sail = korkina_construct(P(1, 0), P(1, a0), letters, a0, back_letters=back)
            v, a = dict(sail.vertices), dict(sail.labels)
            for k in rng.sample(sorted(v), rng.randint(0, 3)):
                del v[k]  # gaps in the window
            j = rng.choice(sorted(v))
            fault = rng.randrange(4)
            if fault == 1:
                v[j] = P(-v[j].x, -v[j].y)  # flips the sign of two determinants
            elif fault == 2:
                v[j] = v[j] + P(1, 0)
            elif fault == 3 and j in a:
                a[j] += 1
            outcome = chain_law_outcome(geometry._check_chain_laws, v, a)
            assert outcome == chain_law_outcome(reference_chain_laws, v, a), (v, a)
            kind, message = outcome or (None, "")
            seen.add(message.split("(")[0].split()[0] if kind == "InternalInvariantError" else kind)
        # every law fails somewhere, gaps reach a missing vertex, and valid windows pass
        assert seen == {None, "KeyError", "det", "determinant", "edge-length", "turning"}


class TestEdgeSproutBijection:
    def test_silver_pair(self):
        even, odd = sail_from_surd(1 + SQRT2, (-4, 4))
        pairs = edge_sprout_bijection(even, odd)
        assert pairs  # nonempty
        for pair in pairs:
            root, top = pair.sprout
            e1, e2 = pair.edge
            # (b) equal integer lengths, and the common value is a_{k+1}
            assert integer_length(root, top) == integer_length(e1, e2) == pair.length == 2
            # (c) parallel
            assert det2(top - root, e2 - e1) == 0
            # (a) the matched edge joins the neighbouring chain vertices
            assert (e1, e2) == (even.vertex(pair.vertex_index - 1), even.vertex(pair.vertex_index + 1))

    def test_golden_pair_all_length_one(self):
        even, odd = sail_from_surd(PHI, (-4, 4))
        for pair in edge_sprout_bijection(even, odd):
            assert pair.length == 1
            assert pair.sprout[1] == pair.sprout[0].scaled(2)

    def test_incidence_preserved(self):
        # (d): the sprout at v_k and the edge [v_{k-2}, v_k] share v_k; their
        # images -- the edge [v_{k-1}, v_{k+1}] and the sprout at v_{k-1} --
        # must share v_{k-1}
        even, odd = sail_from_surd(sqrt_of(7), (-6, 6))
        pairs = {p.vertex_index: p for p in edge_sprout_bijection(even, odd)}
        checked = 0
        for k, pair in pairs.items():
            previous = pairs.get(k - 1)
            if previous is None:
                continue
            assert pair.sprout[0] == even.vertex(k)
            assert pair.edge[0] == previous.sprout[0] == even.vertex(k - 1)
            checked += 1
        assert checked >= 5

    def test_fig_configuration(self):
        sail = korkina_construct(P(3, -1), P(1, 0), [3, 1], 1)
        pairs = edge_sprout_bijection(sail, sail.companion())
        match = next(p for p in pairs if p.vertex_index == 0)
        assert match.sprout == (P(1, 0), P(4, 0))
        assert match.edge == (P(-2, 1), P(1, 1))
        assert match.length == 3

    def test_not_adjacent(self):
        even, odd = sail_from_surd(PHI, (-2, 4))
        other, _ = sail_from_surd(SQRT2, (-2, 4))
        with pytest.raises(NotAdjacent):
            edge_sprout_bijection(even, other)
        with pytest.raises(NotAdjacent):
            edge_sprout_bijection(even, even)


class TestReconstruction:
    def test_unimodular_image(self, rng):
        # rebuilding from the letter word alone, from a fresh seed, yields a
        # sail carried onto the original by a single unimodular matrix
        seen = 0
        while seen < 10:
            alpha = random_canonical_surd(rng, d_max=50)
            if not alpha.is_reduced():
                continue
            seen += 1
            even, _odd = sail_from_surd(alpha, (-2, 8))
            a = dict(even.labels)
            letters = [a[k] for k in range(1, 9)]
            rebuilt = korkina_construct(P(1, -1), P(1, a[0] - 1), letters, a[0])
            v_old, v_new = dict(even.vertices), dict(rebuilt.vertices)
            seed_old = UnimodularMatrix(v_old[-2].x, v_old[-1].x, v_old[-2].y, v_old[-1].y)
            seed_new = UnimodularMatrix(v_new[-2].x, v_new[-1].x, v_new[-2].y, v_new[-1].y)
            m = seed_new @ seed_old.inverse()
            for k in range(-2, 9):
                assert P(*m.apply(v_old[k])) == v_new[k]


class TestQuadraticForm:
    def test_from_surd_doubles_odd_middle(self):
        assert QuadraticForm.from_surd(PHI) == QuadraticForm(2, -1, -2)
        assert QuadraticForm.from_surd(SQRT2) == QuadraticForm(1, 0, -2)

    def test_rejects_square_discriminant(self):
        with pytest.raises(ValueError):
            QuadraticForm(1, 0, -4)
        with pytest.raises(ValueError):
            QuadraticForm(1, 1, 1)

    def test_roots(self):
        plus, minus = QuadraticForm(1, 0, -2).roots()
        assert plus == SQRT2 and minus == -SQRT2


def substitution_automorph(form):
    """Reference automorph: Lagrange's unary substitution loop on the form.

    Applies (x, y) -> (x, x + y) or (x, y) -> (x + y, y), whichever keeps
    the signs of f(0, 1) = a and f(1, 0) = c apart, until the coefficient
    triple recurs; one substitution per unit of each partial quotient.
    """
    a, b, c = form.a, form.b, form.c
    start = (a, b, c)
    p, q, r, s = 1, 0, 0, 1
    while True:
        f11 = a + 2 * b + c
        if f11 * a < 0:
            a, b, c = a, a + b, f11
            p, q, r, s = p + q, q, r + s, s
        else:
            assert f11 * c < 0, f"no substitution applies at {(a, b, c)}"
            a, b, c = f11, b + c, c
            p, q, r, s = p, p + q, r, r + s
        if (a, b, c) == start:
            return UnimodularMatrix(p, q, r, s)


def random_indefinite_forms(rng, count, coeff=40, middle=50, max_disc=10_000):
    """Forms with a*c < 0 and non-square discriminant, as in acceptance criterion 7."""
    done = 0
    while done < count:
        a = rng.randint(1, coeff) * rng.choice([1, -1])
        c = -rng.randint(1, coeff) * (1 if a > 0 else -1)
        b = rng.randint(-middle, middle)
        if b * b - a * c > max_disc:
            continue
        try:
            form = QuadraticForm(a, b, c)
        except ValueError:
            continue
        done += 1
        yield form


class TestLagrangeAutomorphism:
    def test_sqrt2(self):
        form = QuadraticForm(1, 0, -2)
        m = lagrange_automorphism(form)
        assert m == UnimodularMatrix(3, 2, 4, 3)
        assert m.det == 1
        assert min(m.p, m.q, m.r, m.s) >= 0
        assert form.transformed(m) == form
        assert m.act_on_slope(SQRT2) == SQRT2

    def test_golden(self):
        form = QuadraticForm.from_surd(PHI)
        m = lagrange_automorphism(form)
        assert form.transformed(m) == form
        assert m.act_on_slope(PHI) == PHI

    def test_composition_is_automorphism(self):
        form = QuadraticForm(1, 0, -2)
        m = lagrange_automorphism(form)
        assert form.transformed(m @ m) == form

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            lagrange_automorphism(QuadraticForm(1, 4, 2))

    def test_matches_substitution_loop(self):
        for form in random_indefinite_forms(random.Random(73_2026), 500):
            assert lagrange_automorphism(form) == substitution_automorph(form), form

    def test_random_forms(self, rng):
        done = 0
        while done < 60:
            a = rng.randint(1, 30) * rng.choice([1, -1])
            c = -rng.randint(1, 30) * (1 if a > 0 else -1)
            b = rng.randint(-30, 30)
            try:
                form = QuadraticForm(a, b, c)
            except ValueError:
                continue
            done += 1
            m = lagrange_automorphism(form)
            assert m.det == 1 and m != UnimodularMatrix.identity()
            assert min(m.p, m.q, m.r, m.s) >= 0
            assert form.transformed(m) == form
            root = QuadraticSurd(-form.b, 1, form.a, form.discriminant)
            assert m.act_on_slope(root) == root


class TestFixedLines:
    def test_examples(self):
        assert fixed_line_surds(UnimodularMatrix(3, 2, 4, 3)) == (SQRT2, -SQRT2)
        plus, minus = fixed_line_surds(UnimodularMatrix(1, 1, 1, 2))
        assert {plus, minus} == {PHI, PHI.conjugate()}
        assert plus == PHI  # expanding slope first
        plus2, _ = fixed_line_surds(UnimodularMatrix(2, 1, 1, 1))
        assert plus2 == QuadraticSurd(-1, 1, 2, 5)

    def test_conjugate_pair(self, rng):
        m = UnimodularMatrix(7, 4, 12, 7)
        plus, minus = fixed_line_surds(m)
        assert plus.conjugate() == minus
        assert m.act_on_slope(plus) == plus
        assert m.act_on_slope(minus) == minus

    def test_not_hyperbolic(self):
        for mat in [UnimodularMatrix(0, 1, 1, 0), UnimodularMatrix(1, 1, 0, 1),
                    UnimodularMatrix(0, -1, 1, 0), UnimodularMatrix(1, 0, 0, 1)]:
            with pytest.raises(NotHyperbolic):
                fixed_line_surds(mat)


class TestSvg:
    def test_empty_document(self):
        text = emit_svg([])
        assert text.startswith("<svg")
        assert 'version="1.1"' in text
        assert text.count('class="grid"') > 0
        assert text.count('class="vertex"') == 0

    def test_vertex_markers(self):
        even, odd = sail_from_surd(1 + SQRT2, (-2, 4))
        text = emit_svg([even, odd])
        expected = len(even.boundary_vertices()) + len(odd.boundary_vertices())
        assert text.count('class="vertex"') == expected
        assert text.count('class="cone"') == 2  # the two lines, drawn once

    def test_wide_window_cone_lines(self):
        # the cone lines reach past the viewport, whose size grows exponentially with the window
        even, odd = sail_from_surd(1 + SQRT2, (0, 40))
        start = time.perf_counter()
        text = emit_svg([even, odd])
        elapsed = time.perf_counter() - start
        xs = [int(x) for line in re.findall(r'class="cone"[^>]*', text)
              for x in re.findall(r'x[12]="(-?\d+)"', line)]
        assert len(xs) == 4
        assert min(xs) < 0 and max(xs) > int(re.search(r'width="(\d+)"', text).group(1))
        assert elapsed < 1.0, elapsed

    def test_symmetric_configuration(self):
        sail = korkina_construct(P(1, -1), P(1, 1), [2] * 4, 2, back_letters=[2] * 4)
        text = emit_svg([sail])
        coords = set()
        for m in re.finditer(r'class="vertex" cx="(-?\d+)" cy="(-?\d+)"', text):
            coords.add((int(m.group(1)), int(m.group(2))))
        # y-negation symmetry: svg y-axis is flipped, so mirror about the
        # image of the lattice axis y = 0
        ys = sorted(y for _x, y in coords)
        for x, y in coords:
            assert (x, ys[0] + ys[-1] - y) in coords
