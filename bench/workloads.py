"""The four workloads: seeded inputs, the timed item, and the output checks.

Every workload is a closed loop on one thread: one item at a time, the next
only after the previous returns.  Inputs are made from the seed before
timing starts; the timed phase cycles over them until the time is up, so
later rounds repeat earlier items.  The first output of each input is
checked against the oracle after the timed phase, and every repeat must
equal it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from math import gcd, isqrt
from pathlib import Path

import checks
import oracle
from surd_sails import (
    QuadraticForm,
    QuadraticSurd,
    classify,
    expand,
    iter_reduced_surds,
    lagrange_automorphism,
    value,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def key(alpha: QuadraticSurd) -> tuple[int, int, int, int]:
    return alpha.a, alpha.b, alpha.c, alpha.d


def classification_record(result):
    """Plain-data view of a Classification for checks.check_classification."""
    witnesses = {
        flag: (key(w.omega), (w.certificate.p, w.certificate.q, w.certificate.r, w.certificate.s))
        for flag, w in result.witnesses.items()
    }
    return result.cf.preperiod, result.cf.period, result.flags, witnesses


class Workload:
    """Subclasses define make_inputs, run_item, run_item_traced and check."""

    name = ""
    #: sizes used by the benchmark; tests pass smaller ones
    params: dict = {}

    def __init__(self, **params):
        self.params = {**type(self).params, **params}

    def make_inputs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def run_item(self, item):
        raise NotImplementedError

    def run_item_traced(self, item, call):
        """run_item with each library call made through call(name, fn, *args)."""
        raise NotImplementedError

    def check(self, item, output) -> None:
        raise NotImplementedError

    def check_all(self, inputs, outputs) -> None:
        """Checks after the timed phase; outputs[i] is None for inputs not run."""
        for item, output in zip(inputs, outputs):
            if output is not None:
                self.check(item, output)

    def peak_rss_kib(self, usage_self, usage_children) -> int:
        return usage_self.ru_maxrss

    def surd_of(self, item):
        """The item's surd, for the traced run's layer calls, or None."""
        return item.surd


# -- box_roundtrip --------------------------------------------------------


SQUAREFREE_100 = [d for d in range(2, 101) if oracle.squarefree_part(d) == (1, d)]


class BoxRoundtrip(Workload):
    """canonicalize, expand, value over a seeded sample of the criterion-1 box.

    An item is the raw tuple (a, b, c, d); canonicalizing it is part of the item.
    """

    name = "box_roundtrip"
    params = {"sample": 20000}

    def make_inputs(self, rng):
        out = []
        while len(out) < self.params["sample"]:
            a = rng.randint(-20, 20)
            b = rng.choice((-10, -9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
            c = rng.randint(1, 20)
            d = rng.choice(SQUAREFREE_100)
            if gcd(a, b, c) == 1:
                out.append((a, b, c, d))
        return out

    def run_item(self, item):
        alpha = QuadraticSurd(*item)
        cf = expand(alpha)
        return alpha, cf, value(cf)

    def run_item_traced(self, item, call):
        alpha = call("item.construct", QuadraticSurd, *item)
        cf = call("item.expand", expand, alpha)
        return alpha, cf, call("item.value", value, cf)

    def check(self, item, output):
        alpha, cf, v = output
        checks.check_box(item, key(alpha), cf.preperiod, cf.period, key(v))

    def surd_of(self, item):
        return QuadraticSurd(*item)


# -- survey_classify ------------------------------------------------------


class SurveyItem:
    __slots__ = ("disc", "pq", "surd")

    def __init__(self, disc, P, Q):
        self.disc = disc
        self.pq = (P, Q)
        self.surd = QuadraticSurd(P, 1, Q, disc)


class SurveyClassify(Workload):
    """classify over every reduced surd of discriminant <= max_disc, in a
    seeded order."""

    name = "survey_classify"
    params = {"max_disc": 1200}

    def make_inputs(self, rng):
        items = [SurveyItem(D, P, Q) for D, P, Q in oracle.reduced_surds(self.params["max_disc"])]
        rng.shuffle(items)
        return items

    def run_item(self, item):
        return classify(item.surd)

    def run_item_traced(self, item, call):
        return call("item.classify", classify, item.surd)

    def check(self, item, output):
        checks.require(oracle.surd_key(key(item.surd)) == oracle.minpoly_key(*item.pq, item.disc),
                       f"QuadraticSurd({item.pq[0]}, 1, {item.pq[1]}, {item.disc}) changed value")
        checks.check_classification(key(item.surd), *classification_record(output))

    def check_all(self, inputs, outputs):
        super().check_all(inputs, outputs)
        want = {oracle.minpoly_key(*item.pq, item.disc) for item in inputs}
        enumerated = [(disc, oracle.surd_key(key(s))) for disc, s in iter_reduced_surds(self.params["max_disc"])]
        library = {k for _disc, k in enumerated}
        checks.require(len(want) == len(inputs), "the oracle enumeration repeats a surd")
        checks.require(len(library) == len(enumerated) and library == want,
                       f"iter_reduced_surds gives {len(enumerated)} surds, "
                       f"{len(library & want)} of the oracle's {len(want)}")
        for disc, (A, B, C, _larger) in enumerated:
            checks.require(disc == B * B - 4 * A * C, f"iter_reduced_surds reports discriminant {disc}")


# -- long_period ----------------------------------------------------------


class LongItem:
    __slots__ = ("kind", "n", "surd")

    def __init__(self, kind, n, surd):
        self.kind = kind  # "sqrt", "half" or "random"
        self.n = n
        self.surd = surd


class LongPeriod(Workload):
    """expand, value, classify and the Lagrange automorph of surds whose
    periods lie in a fixed band, so that cost is big-integer arithmetic."""

    name = "long_period"
    params = {"count": 200, "disc": (6 * 10**6, 16 * 10**6), "period": (800, 1200)}

    def make_inputs(self, rng):
        lo, hi = self.params["disc"]
        t_lo, t_hi = self.params["period"]
        kinds = ("sqrt", "half", "random")
        out = []
        while len(out) < self.params["count"]:
            kind = kinds[len(out) % 3]
            D = rng.randrange(lo, hi)
            if kind == "sqrt":
                P, Q = 0, 1
            elif kind == "half":
                D += (1 - D) % 4  # D = 1 mod 4, so (1 + sqrt(D))/2 is an integer of its field
                P, Q = 1, 2
            else:
                s = isqrt(D)
                P = rng.randint(1, s)
                Q = rng.randint(s - P + 1, s + P)
                D -= (D - P * P) % Q
                if not oracle.is_reduced(P, Q, D):
                    continue
            if isqrt(D) ** 2 == D:
                continue
            _pre, period, _cycle = oracle.pqa(P, Q, D)
            if t_lo <= len(period) <= t_hi:
                out.append(LongItem(kind, D, QuadraticSurd(P, 1, Q, D)))
        return out

    def run_item(self, item):
        cf = expand(item.surd)
        v = value(cf)
        result = classify(item.surd)
        m = lagrange_automorphism(QuadraticForm.from_surd(item.surd))
        return cf, v, result, m

    def run_item_traced(self, item, call):
        cf = call("item.expand", expand, item.surd)
        v = call("item.value", value, cf)
        result = call("item.classify", classify, item.surd)
        form = call("item.from_surd", QuadraticForm.from_surd, item.surd)
        return cf, v, result, call("item.lagrange", lagrange_automorphism, form)

    def check(self, item, output):
        cf, v, result, m = output
        alpha = key(item.surd)
        checks.check_expansion(alpha, cf.preperiod, cf.period)
        checks.require(key(v) == alpha, f"value(expand({alpha})) = {key(v)}")
        if item.kind == "sqrt":
            checks.check_sqrt_shape(item.n, cf.preperiod, cf.period)
        checks.check_classification(alpha, *classification_record(result))
        checks.check_automorph(oracle.form_of(alpha), cf.period, (m.p, m.q, m.r, m.s))


# -- cli_cold -------------------------------------------------------------


class Invocation:
    """One surd-sails command line and what its checker needs."""

    __slots__ = ("command", "argv", "data", "outfile", "surd")

    def __init__(self, command, argv, data, outfile=None, surd=None):
        self.command = command
        self.argv = argv
        self.data = data
        self.outfile = outfile
        self.surd = surd


def cli_env(threads: str = "1") -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SURD_SAILS_THREADS"] = threads
    return env


def random_small_surd(rng) -> tuple[int, int, int, int]:
    while True:
        raw = (rng.randint(-12, 12), rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 9),
               rng.choice(SQUAREFREE_100[:30]))
        if gcd(*raw[:3]) == 1:
            return raw


class CliCold(Workload):
    """A fixed mix of surd-sails invocations, each in a fresh child process."""

    name = "cli_cold"
    params = {"rounds": 2, "survey_disc": 60, "window": (-2, 8)}
    COMMANDS = ("expand", "value", "classify", "convergents", "equiv", "auto", "sail", "survey")

    def make_inputs(self, rng):
        OUT_DIR.mkdir(exist_ok=True)
        svg = str(OUT_DIR / "cli_cold.svg")
        csv = str(OUT_DIR / "cli_cold.csv")
        k_min, k_max = self.params["window"]
        out = []
        for _ in range(self.params["rounds"]):
            alpha = random_small_surd(rng)
            out.append(Invocation("expand", ["expand", checks.format_surd(alpha)], alpha, surd=alpha))
            pre, per = oracle.expand(random_small_surd(rng))
            out.append(Invocation("value", ["value", checks.format_cf(pre, per)], (pre, per)))
            # k + sqrt(n) has the symmetric period of sqrt(n), so its witnesses are printed
            n = rng.choice([m for m in range(2, 150) if isqrt(m) ** 2 != m])
            alpha = oracle.canonical(rng.randint(-5, 5), 1, 1, n)
            out.append(Invocation("classify", ["classify", checks.format_surd(alpha), "--json"], alpha, surd=alpha))
            alpha, count = random_small_surd(rng), rng.randint(8, 16)
            out.append(Invocation("convergents", ["convergents", checks.format_surd(alpha), "-n", str(count)],
                                  (alpha, count), surd=alpha))
            alpha = random_small_surd(rng)
            p, q = rng.randint(-3, 3), rng.choice((-1, 1))
            omega = oracle.canonical(*self._shift(alpha, p, q))
            out.append(Invocation("equiv", ["equiv", checks.format_surd(alpha), checks.format_surd(omega)],
                                  (alpha, omega), surd=alpha))
            while True:
                A, B, C = rng.randint(1, 9), rng.randint(-9, 9), -rng.randint(1, 9)
                if isqrt(B * B - 4 * A * C) ** 2 != B * B - 4 * A * C:
                    break
            out.append(Invocation("auto", ["auto", str(A), str(B), str(C)], (A, B, C)))
            alpha = random_small_surd(rng)
            out.append(Invocation("sail", ["sail", checks.format_surd(alpha), f"--range={k_min}:{k_max}",
                                           "--svg", svg], alpha, outfile=svg, surd=alpha))
            out.append(Invocation("survey", ["survey", "--dmax", str(self.params["survey_disc"]), "--csv", csv],
                                  self.params["survey_disc"], outfile=csv))
        return out

    @staticmethod
    def _shift(alpha, p, q):
        """(q * alpha + p), an equivalent surd, as an unreduced tuple."""
        a, b, c, d = alpha
        return q * a + p * c, q * b, c, d

    def run_item(self, item):
        done = subprocess.run(
            [sys.executable, "-m", "surd_sails.cli", *item.argv],
            cwd=ROOT, env=cli_env("2" if item.command == "survey" else "1"),
            capture_output=True, text=True, timeout=120,
        )
        written = None
        if item.outfile and done.returncode == 0:
            written = Path(item.outfile).read_text()
        return done.returncode, done.stdout, written, done.stderr

    def run_item_traced(self, item, call):
        return call(f"cli.{item.command}", self.run_item, item)

    def check(self, item, output):
        code, out, written, err = output
        checks.require(code == 0, f"{' '.join(item.argv)} exited {code}: {err.strip()[-200:]}")
        if item.command == "expand":
            checks.check_cli_expand(item.data, out)
        elif item.command == "value":
            checks.check_cli_value(*item.data, out)
        elif item.command == "classify":
            checks.check_cli_classify(item.data, out)
        elif item.command == "convergents":
            checks.check_cli_convergents(*item.data, out)
        elif item.command == "equiv":
            checks.check_cli_equiv(*item.data, out)
        elif item.command == "auto":
            checks.check_cli_auto(item.data, out)
        elif item.command == "sail":
            checks.check_cli_sail(item.data, *self.params["window"], out, written)
        else:
            checks.check_cli_survey(item.data, written)

    def peak_rss_kib(self, usage_self, usage_children):
        return usage_children.ru_maxrss

    def surd_of(self, item):
        return QuadraticSurd(*item.surd) if item.surd else None


WORKLOADS = {w.name: w for w in (BoxRoundtrip, SurveyClassify, LongPeriod, CliCold)}
