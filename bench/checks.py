"""Output checks driven by the independent oracle.

Each checker takes plain data (canonical surd tuples (a, b, c, d), letter
tuples, matrix tuples (p, q, r, s), CLI output text) and raises CheckFailed
when the output is wrong.  Nothing here imports surd_sails, and no expected
value is stored: every reference is recomputed by the oracle.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ElementTree
from math import isqrt

import oracle


class CheckFailed(Exception):
    """A program output disagrees with the oracle or with a law it must obey."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- library outputs ------------------------------------------------------


def check_expansion(alpha, preperiod, period) -> None:
    """Letters, preperiod length and period length equal PQa's."""
    want = oracle.expand(alpha)
    got = (tuple(preperiod), tuple(period))
    require(got == want, f"expansion of {alpha}: got {got}, PQa gives {want}")


def check_box(raw, alpha, preperiod, period, value) -> None:
    """One box_roundtrip item: canonicalize, expand, value."""
    require(alpha == oracle.canonical(*raw), f"{raw} canonicalized to {alpha}")
    check_expansion(alpha, preperiod, period)
    reduced = oracle.is_reduced(*oracle.pqa_triple(*alpha))
    require((not preperiod) == reduced,
            f"{alpha}: purely periodic is {not preperiod}, reduced is {reduced}")
    require(value == alpha, f"value(expand({alpha})) = {value}")


def check_witness(flag, omega, certificate, alpha_cycle) -> None:
    """Trace/norm equation, same reduced cycle as alpha, certificate maps
    omega to its conjugate."""
    tr, nm = oracle.trace(omega), oracle.norm(omega)
    holds = {"a": tr == 0, "b": tr == 1, "c": nm == 1, "d": nm == -1}[flag]
    require(holds, f"witness ({flag}) {omega} has trace {tr}, norm {nm}")
    require(oracle.cycle_keys(omega) == alpha_cycle,
            f"witness ({flag}) {omega} has another reduced cycle")
    image = oracle.slope_action(certificate, omega)
    require(oracle.same_surd(image, oracle.conjugate(omega)),
            f"certificate {certificate} does not map {omega} to its conjugate")


def check_classification(alpha, preperiod, period, flags, witnesses) -> None:
    """witnesses maps each flag to (omega tuple, certificate tuple)."""
    check_expansion(alpha, preperiod, period)
    flags = frozenset(flags)
    palindrome = oracle.is_cyclic_palindrome(period)
    require(bool(flags) == palindrome,
            f"{alpha}: flags {sorted(flags)} but cyclic palindrome is {palindrome}")
    shape = oracle.shape_flags(period)
    require(flags == shape, f"{alpha}: flags {sorted(flags)}, shape rules give {sorted(shape)}")
    require(set(witnesses) == flags, f"{alpha}: witnesses for {sorted(witnesses)}, flags {sorted(flags)}")
    if witnesses:
        alpha_cycle = oracle.cycle_keys(alpha)
        for flag, (omega, certificate) in witnesses.items():
            check_witness(flag, omega, certificate, alpha_cycle)


def check_automorph(form, period, matrix) -> None:
    """Determinant 1, the form is preserved, trace equals the continuant trace."""
    p, q, r, s = matrix
    require(p * s - q * r == 1, f"automorph {matrix} has determinant {p * s - q * r}")
    require(oracle.form_image(form, matrix) == form, f"automorph {matrix} moves the form {form}")
    want = oracle.continuant_trace(period)
    require(p + s == want, f"automorph {matrix} has trace {p + s}, continuant trace {want}")


def check_sqrt_shape(n, preperiod, period) -> None:
    """sqrt(n) = [r; (w, 2r)] with w a palindrome and r = isqrt(n)."""
    r = isqrt(n)
    head = tuple(period[:-1])
    require(tuple(preperiod) == (r,) and period[-1] == 2 * r and head == head[::-1],
            f"sqrt({n}) breaks the shape law: {preperiod}, {period}")


# -- CLI output text ------------------------------------------------------

_BODY = re.compile(r"(?:(-?\d+)(?=[+-]))?([+-]?)(?:(\d+)\*)?sqrt\((\d+)\)")
_MATRIX = re.compile(r"\[\[(-?\d+), (-?\d+)\], \[(-?\d+), (-?\d+)\]\]")


def parse_surd_text(text: str):
    """Canonical tuple of a surd printed as a+b*sqrt(d), (a+b*sqrt(d))/c, ..."""
    text = text.strip()
    c = 1
    m = re.fullmatch(r"\((.*)\)/(\d+)", text) or re.fullmatch(r"(.*)/(\d+)", text)
    if m:
        text, c = m.group(1), int(m.group(2))
    m = _BODY.fullmatch(text)
    require(m is not None, f"unreadable surd {text!r}")
    a = int(m.group(1) or 0)
    b = int(m.group(3) or 1) * (-1 if m.group(2) == "-" else 1)
    return a, b, c, int(m.group(4))


def format_surd(alpha) -> str:
    """Input text for the CLI parser: (a+b*sqrt(d))/c."""
    a, b, c, d = alpha
    return f"({a}{b:+d}*sqrt({d}))/{c}"


def format_cf(preperiod, period) -> str:
    body = ", ".join(map(str, period))
    if not preperiod:
        return f"[({body})]"
    rest = "".join(f"{x}, " for x in preperiod[1:])
    return f"[{preperiod[0]}; {rest}({body})]"


def parse_cf_text(text: str):
    m = re.fullmatch(r"\[(.*)\((.*)\)\]", text.strip())
    require(m is not None, f"unreadable continued fraction {text!r}")
    ints = lambda s: tuple(int(x) for x in re.findall(r"-?\d+", s))  # noqa: E731
    return ints(m.group(1)), ints(m.group(2))


def parse_matrix_text(text: str):
    m = _MATRIX.search(text)
    require(m is not None, f"no matrix in {text!r}")
    return tuple(int(x) for x in m.groups())


def check_cli_expand(alpha, out: str) -> None:
    check_expansion(alpha, *parse_cf_text(out))


def check_cli_value(preperiod, period, out: str) -> None:
    alpha = parse_surd_text(out)
    got = oracle.expand(alpha)
    require(got == (tuple(preperiod), tuple(period)),
            f"value of {format_cf(preperiod, period)} printed {out.strip()!r}, which expands to {got}")


def check_cli_classify(alpha, out: str) -> None:
    data = json.loads(out)
    require(parse_surd_text(data["surd"]) == alpha, f"classify echoed {data['surd']} for {alpha}")
    witnesses = {}
    for flag, w in data["witnesses"].items():
        omega = parse_surd_text(w["omega"])
        require(w["trace"] == str(oracle.trace(omega)) and w["norm"] == str(oracle.norm(omega)),
                f"witness ({flag}) {w['omega']} reports trace {w['trace']}, norm {w['norm']}")
        (p, q), (r, s) = w["certificate"]
        witnesses[flag] = (omega, (p, q, r, s))
    check_classification(alpha, data["preperiod"], data["period"], data["flags"], witnesses)


def check_cli_convergents(alpha, count: int, out: str) -> None:
    pre, per = oracle.expand(alpha)
    letters = [(pre + per * count)[k] for k in range(count)]
    want = [f"{p}/{q}" for p, q in oracle.convergents(letters)]
    require(out.split() == want, f"convergents of {alpha}: got {out.split()[:4]}..., want {want[:4]}...")


def check_cli_equiv(alpha, omega, out: str) -> None:
    equivalent = oracle.cycle_keys(alpha) == oracle.cycle_keys(omega)
    lines = out.splitlines()
    require(lines[0] == f"equivalent: {str(equivalent).lower()}", f"equiv {alpha} {omega}: {lines[0]!r}")
    if equivalent:
        m = parse_matrix_text(lines[1])
        require(m[0] * m[3] - m[1] * m[2] in (1, -1), f"certificate {m} is not unimodular")
        require(oracle.same_surd(oracle.mobius(m, omega), alpha),
                f"certificate {m} does not map {omega} to {alpha}")


def check_cli_auto(coeffs, out: str) -> None:
    A, B, C = coeffs
    lines = out.splitlines()
    require(lines[-1] == "form preserved: true", f"auto {coeffs}: {lines[-1]!r}")
    form = (A, B // 2, C) if B % 2 == 0 else (2 * A, B, 2 * C)
    _pre, period, _cycle = oracle.pqa(-B, 2 * A, B * B - 4 * A * C)
    check_automorph(form, period, parse_matrix_text(lines[0]))


_VERTEX = re.compile(r"\s*v_(-?\d+) = \((-?\d+), (-?\d+)\)\s+a_(-?\d+) = (\d+)")


def check_cli_sail(alpha, k_min: int, k_max: int, out: str, svg: str) -> None:
    """Vertices and labels follow the chain recurrence over alpha's period,
    each sail lists its own parity, and the SVG parses as XML."""
    _pre, period, _cycle = oracle.pqa(*oracle.pqa_triple(*alpha))
    chain = oracle.sail_chain(period, k_min, k_max)
    seen = {}
    parity = None
    for line in out.splitlines():
        if line.startswith("sail (parity"):
            parity = int(line[len("sail (parity "):-2])
            continue
        m = _VERTEX.fullmatch(line)
        if m:
            k, x, y, k2, a = (int(g) for g in m.groups())
            require(k == k2 and k % 2 == parity, f"sail line {line!r} under parity {parity}")
            require(chain.get(k) == (x, y), f"sail vertex v_{k} = {(x, y)}, chain gives {chain.get(k)}")
            require(a == period[k % len(period)], f"sail label a_{k} = {a}")
            seen[k] = (x, y)
    require(set(seen) == set(chain), f"sail lists vertices {sorted(seen)}")
    try:
        root = ElementTree.fromstring(svg)
    except ElementTree.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    require(root.tag.endswith("svg"), f"SVG root element is {root.tag}")


def check_cli_survey(max_disc: int, csv_text: str) -> None:
    """One row per reduced surd of discriminant <= max_disc, with its
    discriminant, period and shape-rule flags."""
    lines = csv_text.splitlines()
    require(lines and lines[0] == "discriminant,surd,period,flags", "survey CSV header")
    want = {oracle.minpoly_key(P, Q, D) for D, P, Q in oracle.reduced_surds(max_disc)}
    got = set()
    for line in lines[1:]:
        disc, surd, period, flags = line.split(",")
        alpha = parse_surd_text(surd)
        pre, per = oracle.expand(alpha)
        require(not pre and per == tuple(int(x) for x in period.split()),
                f"survey row {line!r}: PQa gives {pre}, {per}")
        require(int(disc) == oracle.discriminant(alpha), f"survey row {line!r}: wrong discriminant")
        require(flags == "".join(sorted(oracle.shape_flags(per))), f"survey row {line!r}: wrong flags")
        got.add(oracle.surd_key(alpha))
    require(len(lines) - 1 == len(want) and got == want,
            f"survey lists {len(lines) - 1} rows, {len(got & want)} of the {len(want)} reduced surds")
