"""The traced run: each layer timed from outside, one public call at a time.

For every item the traced run does three things.  It runs the workload's
item as one timed call, as the untraced run does, and the same item with a
span around each of its library calls; these two alternate in order and
give trace.overhead_ratio.  Then it walks the layers on the item's surd,
calling in this order:

    arith     QuadraticSurd(a, b, c, d)
    cfrac     expand, PeriodicCF.normalized on expand's output, value
    symmetry  centers(CyclicWord(period))
    criterion witness for the first center of each flag, as classify
              chooses, and classify as a whole, before or after them on
              alternate items
    cfrac     serret_equivalent(alpha, witness.omega)
    geometry  lagrange_automorphism(QuadraticForm.from_surd(alpha)) when
              the form is indefinite with a*c < 0; sail_from_surd; emit_svg
    cli       parse_surd_spec(str(alpha))

The CLI layer is timed in child processes on one round of the cli_cold mix,
next to the bare interpreter start and the import of surd_sails.cli.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from statistics import median

import oracle
from surd_sails import (
    CyclicWord,
    PeriodicCF,
    QuadraticForm,
    QuadraticSurd,
    centers,
    classify,
    emit_svg,
    expand,
    lagrange_automorphism,
    sail_from_surd,
    serret_equivalent,
    value,
    witness,
)
from surd_sails.cli import parse_surd_spec

import workloads

clock = time.perf_counter_ns

#: spans kept verbatim for the trace file; later ones are only aggregated
KEEP_SPANS = 5000
FLOOR_REPEATS = 5
#: flags each center kind certifies; classify keeps the first center of each
KIND_FLAGS = {"even": ("a",), "odd": ("b", "c"), "gap": ("d",)}


class Tracer:
    """Spans (name, start, end, item) with per-name totals and counts."""

    def __init__(self):
        self.spans = []
        self.total_ns = {}
        self.calls = {}
        self.counts = {}
        self.item = 0

    def call(self, name, fn, *args):
        t0 = clock()
        out = fn(*args)
        t1 = clock()
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((name, t0, t1, self.item))
        self.total_ns[name] = self.total_ns.get(name, 0) + (t1 - t0)
        self.calls[name] = self.calls.get(name, 0) + 1
        return out

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name, amount):
        self.counts[name] = max(self.counts.get(name, 0), amount)

    def us_per_call(self, name):
        calls = self.calls.get(name, 0)
        return self.total_ns[name] / calls / 1e3 if calls else 0.0


def layer_walk(alpha, tr):
    """Every in-process layer on one surd, each call timed on its own."""
    x = tr.call("arith.construct", QuadraticSurd, alpha.a, alpha.b, alpha.c, alpha.d)
    cf = tr.call("cfrac.expand", expand, x)
    tr.count("letters", len(cf.preperiod) + len(cf.period))
    tr.call("cfrac.normalized", PeriodicCF.normalized, cf.preperiod, cf.period)
    tr.call("cfrac.value", value, cf)
    # classify goes first on every other item: whichever runs second finds
    # squarefree_split's cache warm for the witnesses' fixed slopes
    if tr.item % 2:
        tr.call("criterion.classify", classify, x)
    axes = tr.call("symmetry.centers", lambda p: centers(CyclicWord(p)), cf.period)
    chosen = {}
    for center in axes:
        for flag in KIND_FLAGS[center.kind.value]:
            if flag not in chosen:
                chosen[flag] = tr.call("criterion.witness", witness, x, flag, center)
    if not tr.item % 2:
        tr.call("criterion.classify", classify, x)
    for w in chosen.values():
        m = w.period_map
        tr.peak("period_map_bits", max(abs(e).bit_length() for e in (m.p, m.q, m.r, m.s)))
        tr.call("cfrac.serret_equivalent", serret_equivalent, x, w.omega)
    A, _B, C, _larger = oracle.surd_key((x.a, x.b, x.c, x.d))
    if A * C < 0:
        form = QuadraticForm.from_surd(x)
        tr.call("geometry.lagrange_automorphism", lagrange_automorphism, form)
        tr.count("lagrange_letters", sum(cf.period))
    sails = tr.call("geometry.sail_from_surd", sail_from_surd, x, (-2, 8))
    svg = tr.call("geometry.emit_svg", emit_svg, list(sails))
    tr.count("svg_bytes", len(svg.encode()))
    tr.call("cli.parse", parse_surd_spec, str(x))


def spawn_ms(argv, env) -> float:
    t0 = clock()
    subprocess.run([sys.executable, *argv], env=env, cwd=workloads.ROOT, check=True,
                   capture_output=True, timeout=120)
    return (clock() - t0) / 1e6


def run_traced(wl, inputs, seconds, seed):
    """Returns (per-layer metrics, tracer, attempted, failed, first output of each input)."""
    tr = Tracer()
    n = len(inputs)
    outputs = [None] * n
    whole_ns = traced_ns = 0
    attempted = failed = 0
    deadline = clock() + int(seconds * 1e9)
    cli = isinstance(wl, workloads.CliCold)
    walked = 0
    while attempted == 0 or clock() < deadline:
        idx = attempted % n
        item = inputs[idx]
        tr.item = attempted
        attempted += 1
        try:
            for part in ((0, 1) if attempted % 2 else (1, 0)):
                if part == 0:
                    t0 = clock()
                    out = wl.run_item(item)
                    whole_ns += clock() - t0
                    if outputs[idx] is None:
                        outputs[idx] = out
                else:
                    t0 = clock()
                    wl.run_item_traced(item, tr.call)
                    traced_ns += clock() - t0
            alpha = wl.surd_of(item)
            if alpha is not None:
                layer_walk(alpha, tr)
                walked += 1
        except Exception as exc:  # a failed operation is counted, the run goes on
            failed += 1
            print(f"traced item {idx} failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    env = workloads.cli_env()
    if not cli:
        mix = workloads.CliCold(rounds=1)
        for inv in mix.make_inputs(random.Random(seed)):
            out = tr.call(f"cli.{inv.command}", mix.run_item, inv)
            mix.check(inv, out)
            tr.count("cli_output_bytes", len(out[1]) + len(out[2] or ""))
            tr.count("cli_invocations", 1)
    else:
        for idx, out in enumerate(outputs):
            if out is not None:
                tr.count("cli_output_bytes", len(out[1]) + len(out[2] or ""))
                tr.count("cli_invocations", 1)
    floor = median(spawn_ms(["-c", "pass"], env) for _ in range(FLOOR_REPEATS))
    imported = median(spawn_ms(["-c", "import surd_sails.cli"], env) for _ in range(FLOOR_REPEATS))

    expand_us = tr.us_per_call("cfrac.expand")
    classify_us = tr.us_per_call("criterion.classify")
    decomposed = sum(tr.total_ns.get(k, 0) for k in ("cfrac.expand", "symmetry.centers", "criterion.witness"))
    metrics = {
        "arith.construct.us_per_call": (tr.us_per_call("arith.construct"), "us"),
        "cfrac.expand.us_per_call": (expand_us, "us"),
        "cfrac.expand.ns_per_letter": (tr.total_ns.get("cfrac.expand", 0) / max(tr.counts.get("letters", 0), 1), "ns"),
        "cfrac.expand.letters_per_call": (tr.counts.get("letters", 0) / max(walked, 1), "count"),
        "cfrac.normalized.us_per_call": (tr.us_per_call("cfrac.normalized"), "us"),
        "cfrac.value.us_per_call": (tr.us_per_call("cfrac.value"), "us"),
        "cfrac.serret_equivalent.us_per_call": (tr.us_per_call("cfrac.serret_equivalent"), "us"),
        "symmetry.centers.us_per_call": (tr.us_per_call("symmetry.centers"), "us"),
        "criterion.classify.us_per_call": (classify_us, "us"),
        "criterion.witness.us_per_call": (tr.us_per_call("criterion.witness"), "us"),
        "criterion.witness.calls_per_item": (tr.calls.get("criterion.witness", 0) / max(walked, 1), "count"),
        "criterion.witness.period_map_bits": (tr.counts.get("period_map_bits", 0), "bits"),
        "criterion.classify_per_expand": (classify_us / expand_us if expand_us else 0.0, "ratio"),
        "geometry.lagrange_automorphism.us_per_call": (tr.us_per_call("geometry.lagrange_automorphism"), "us"),
        "geometry.lagrange_automorphism.letters_sum": (
            tr.counts.get("lagrange_letters", 0) / max(tr.calls.get("geometry.lagrange_automorphism", 0), 1), "count"),
        "geometry.sail_from_surd.us_per_call": (tr.us_per_call("geometry.sail_from_surd"), "us"),
        "geometry.emit_svg.us_per_call": (tr.us_per_call("geometry.emit_svg"), "us"),
        "geometry.emit_svg.bytes": (tr.counts.get("svg_bytes", 0) / max(tr.calls.get("geometry.emit_svg", 0), 1), "bytes"),
        "cli.interpreter_start_ms": (floor, "ms"),
        "cli.import_ms": (imported - floor, "ms"),
        "cli.parse.us_per_call": (tr.us_per_call("cli.parse"), "us"),
    }
    for command in workloads.CliCold.COMMANDS:
        metrics[f"cli.{command}.ms"] = (tr.us_per_call(f"cli.{command}") / 1e3, "ms")
    metrics["cli.output_bytes"] = (tr.counts.get("cli_output_bytes", 0) / max(tr.counts.get("cli_invocations", 0), 1), "bytes")
    metrics["trace.coverage"] = (decomposed / tr.total_ns["criterion.classify"] if walked else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_ns / whole_ns if whole_ns else 0.0, "ratio")
    return metrics, tr, attempted, failed, outputs

