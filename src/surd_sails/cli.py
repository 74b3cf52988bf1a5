"""Command-line front end.

Input grammar (ASCII only):

    surd expressions   (1+sqrt(5))/2, sqrt(19), 2*sqrt(3)/5 - 1
    sqrt of a rational sqrt(5/4)
    polynomial roots   root+ 1 -1 -1   (larger root of x^2 - x - 1)
    CF literals        [1; (2)], [4; (2, 1, 3, 1, 2, 8)], [(1, 2)]

Exit codes: 0 success, 1 input error or reached work limit, 2 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from fractions import Fraction
from typing import Optional, Union

from .arith import QuadraticSurd, sqrt_of
from .cfrac import PeriodicCF, convergents, expand, serret_matrix, value
from .errors import InternalInvariantError, NotEquivalent, ParseError, SurdSailsError

SurdSpec = Union[QuadraticSurd, PeriodicCF]


# -- tokenizer / parser -------------------------------------------------

_SYMBOLS = set("+-*/()[];,")
# how many '(', 'sqrt(' and unary '-' may enclose a factor; each level costs the
# recursive-descent parser up to three Python frames, inside the default
# recursion limit of 1000
_MAX_NESTING = 256


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.peek()[2])

    # expression := term (('+' | '-') term)*
    def expression(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            out = -self.term()
        else:
            out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    # term := factor (('*' | '/') factor)*
    def term(self):
        out = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _v, at = self.next()
            rhs = self.factor()
            if op == "*":
                out = out * rhs
            else:
                if rhs == 0:
                    raise ParseError("division by zero", at)
                out = out / rhs
        return out

    # factor := int | sqrt '(' rational ')' | '(' expression ')' | '-' factor
    def factor(self):
        if self.depth > _MAX_NESTING:  # the open factors are the levels around this one
            self.fail(f"input nested deeper than the limit of {_MAX_NESTING} levels")
        self.depth += 1
        try:
            kind, val, at = self.next()
            if kind == "int":
                return Fraction(val)
            if kind == "name":
                if val != "sqrt":
                    raise ParseError(f"unknown name {val!r}", at)
                self.expect("(")
                arg = self.expression()
                self.expect(")")
                if not isinstance(arg, Fraction):
                    raise ParseError("sqrt argument must be rational", at)
                if arg <= 0:
                    raise ParseError(f"sqrt argument must be positive, got {arg}", at)
                return sqrt_of(arg)
            if kind == "(":
                out = self.expression()
                self.expect(")")
                return out
            if kind == "-":
                return -self.factor()
            raise ParseError(f"unexpected token {val!r}", at)
        finally:
            self.depth -= 1

    # cf := '[' head? '(' int (',' int)* ')' ']'
    def cf_literal(self) -> PeriodicCF:
        self.expect("[")
        preperiod: list[int] = []
        if self.peek()[0] != "(":
            preperiod.append(self.signed_int())
            if self.peek()[0] == ";":
                self.next()
            while self.peek()[0] not in ("(", "]"):
                preperiod.append(self.signed_int())
                if self.peek()[0] == ",":
                    self.next()
        self.expect("(")
        period = [self.signed_int()]
        while self.peek()[0] == ",":
            self.next()
            period.append(self.signed_int())
        self.expect(")")
        self.expect("]")
        self.expect("end")
        return PeriodicCF.normalized(preperiod, period)

    def signed_int(self) -> int:
        kind, val, at = self.next()
        if kind == "-":
            kind, val, at = self.next()
            if kind != "int":
                raise ParseError("expected an integer", at)
            return -val
        if kind != "int":
            raise ParseError("expected an integer", at)
        return val


def parse_cf(text: str) -> PeriodicCF:
    """Parse a continued-fraction literal like '[1; (2)]' or '[(1, 2)]'."""
    return _Parser(text).cf_literal()


def parse_surd_spec(text: str) -> SurdSpec:
    """Parse any surd specification; CF literals parse to PeriodicCF."""
    stripped = text.strip()
    if stripped.startswith("["):
        return parse_cf(text)
    if stripped.startswith("root+") or stripped.startswith("root-"):
        larger = stripped[4] == "+"
        parts = stripped[5:].split()
        if len(parts) != 3:
            raise ParseError("root form needs three integers", len(text))
        try:
            qa, qb, qc = (int(p) for p in parts)
        except ValueError:
            raise ParseError("root coefficients must be integers", 5) from None
        try:
            return QuadraticSurd.from_root(qa, qb, qc, larger=larger)
        except ValueError as exc:
            raise ParseError(str(exc), 0) from None
    parser = _Parser(text)
    out = parser.expression()
    parser.expect("end")
    if isinstance(out, Fraction):
        raise ParseError(f"value {out} is rational, not a quadratic surd", 0)
    return out


def parse_surd(text: str) -> QuadraticSurd:
    """Parse a surd specification, evaluating CF literals to their value."""
    spec = parse_surd_spec(text)
    return value(spec) if isinstance(spec, PeriodicCF) else spec


# -- output helpers ------------------------------------------------------


def _write_atomic(path: str, data: str) -> None:
    import tempfile  # only the commands that write files load it

    try:  # the mode open(path, "w") would give, not mkstemp's 0600
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-surd-sails-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- subcommands ---------------------------------------------------------
#
# The symmetry, criterion and geometry layers are imported by the commands
# that run them, so the other commands start without loading them.


def _cmd_expand(args) -> int:
    alpha = parse_surd(args.spec)
    cf = expand(alpha)
    _emit(
        {"surd": str(alpha), **cf.to_json()},
        args.json,
        [str(cf)],
    )
    return 0


def _cmd_value(args) -> int:
    cf = parse_cf(args.cf)
    alpha = value(cf)
    qa, qb, qc = alpha.minimal_polynomial()
    _emit(
        {"cf": cf.to_json(), "surd": str(alpha), "minimal_polynomial": [qa, qb, qc]},
        args.json,
        [str(alpha)],
    )
    return 0


def _cmd_classify(args) -> int:
    from .criterion import classify

    alpha = parse_surd(args.spec)
    result = classify(alpha)
    payload = result.to_json()
    lines = [
        f"surd: {payload['surd']}",
        f"continued fraction: {result.cf}",
        f"centers: {', '.join(f'{c.kind.value}@{c.position}' for c in result.centers) or 'none'}",
        f"flags: {', '.join(sorted(result.flags)) or 'none'}",
    ]
    for flag in sorted(result.witnesses):
        w = result.witnesses[flag]
        lines.append(
            f"witness ({flag}): omega = {w.omega}, trace = {w.omega.trace()}, "
            f"norm = {w.omega.norm()}, certificate = {w.certificate}"
        )
    _emit(payload, args.json, lines)
    return 0


def _cmd_convergents(args) -> int:
    alpha = parse_surd(args.spec)
    cf = expand(alpha)
    convs = convergents(cf, args.count)
    _emit(
        {"surd": str(alpha), "convergents": [[c.p, c.q] for c in convs]},
        args.json,
        [str(c) for c in convs],
    )
    return 0


def _cmd_equiv(args) -> int:
    alpha = parse_surd(args.first)
    omega = parse_surd(args.second)
    try:
        matrix = serret_matrix(alpha, omega)
    except NotEquivalent:
        _emit({"equivalent": False}, args.json, ["equivalent: false"])
        return 0
    _emit(
        {"equivalent": True, "certificate": [list(r) for r in matrix.rows()]},
        args.json,
        ["equivalent: true", f"certificate: {matrix}"],
    )
    return 0


def _cmd_auto(args) -> int:
    from .geometry import QuadraticForm, fixed_line_surds, lagrange_automorphism

    form = QuadraticForm.from_polynomial(args.a, args.b, args.c)
    matrix = lagrange_automorphism(form)
    slopes = fixed_line_surds(matrix)
    preserved = form.transformed(matrix) == form
    _emit(
        {
            "form": {"a": form.a, "b": form.b, "c": form.c},
            "automorphism": [list(r) for r in matrix.rows()],
            "fixed_slopes": [str(s) for s in slopes],
            "form_preserved": preserved,
        },
        args.json,
        [
            f"automorphism: {matrix}",
            f"fixed slopes: {slopes[0]}, {slopes[1]}",
            f"form preserved: {str(preserved).lower()}",
        ],
    )
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError("range must look like k0:k1", 0)
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("range bounds must be integers", 0) from None
    if lo > hi:
        raise ParseError("empty range", 0)
    return lo, hi


def _cmd_sail(args) -> int:
    from .geometry import emit_svg, sail_from_surd

    alpha = parse_surd(args.spec)
    window = _parse_range(args.range)
    even, odd = sail_from_surd(alpha, window)
    payload = {
        "surd": str(alpha),
        "cone": [str(s) for s in even.cone],
        "sails": [even.to_json() | {"parity": 0}, odd.to_json() | {"parity": 1}],
    }
    lines = [f"cone slopes: {even.cone[0]}, {even.cone[1]}"]
    for sail in (even, odd):
        lines.append(f"sail (parity {sail.parity}):")
        for k, pt in sail.boundary_vertices():
            lines.append(f"  v_{k} = ({pt.x}, {pt.y})   a_{k} = {sail.label(k)}")
    if args.svg:
        _write_atomic(args.svg, emit_svg([even, odd]))
        lines.append(f"svg written to {args.svg}")
    _emit(payload, args.json, lines)
    return 0


def _survey_rows(max_disc: int) -> list[dict]:
    from .criterion import classify, iter_reduced_surds

    rows = []
    for disc, alpha in iter_reduced_surds(max_disc):
        result = classify(alpha)
        rows.append({
            "discriminant": disc,
            "surd": str(alpha),
            "period": list(result.cf.period),
            "flags": sorted(result.flags),
            "centers": [c.to_json() for c in result.centers],
        })
    rows.sort(key=lambda r: (r["discriminant"], r["surd"]))
    return rows


def _cmd_survey(args) -> int:
    rows = _survey_rows(args.dmax)
    frequencies: dict[str, int] = {}
    for r in rows:
        key = "".join(r["flags"]) or "-"
        frequencies[key] = frequencies.get(key, 0) + 1
    if args.json_file:
        _write_atomic(
            args.json_file,
            json.dumps({"dmax": args.dmax, "rows": rows, "flag_frequencies": frequencies},
                       indent=2, sort_keys=True),
        )
        print(f"{len(rows)} surds written to {args.json_file}")
    elif args.csv_file:
        lines = ["discriminant,surd,period,flags"]
        for r in rows:
            period = " ".join(str(x) for x in r["period"])
            lines.append(f"{r['discriminant']},{r['surd']},{period},{''.join(r['flags'])}")
        _write_atomic(args.csv_file, "\n".join(lines) + "\n")
        print(f"{len(rows)} surds written to {args.csv_file}")
    else:
        for r in rows:
            period = "(" + ", ".join(str(x) for x in r["period"]) + ")"
            flags = "".join(r["flags"]) or "-"
            print(f"{r['discriminant']:6d}  {flags:4s}  {period:24s}  {r['surd']}")
        print(f"total: {len(rows)} reduced surds with discriminant <= {args.dmax}")
        for key in sorted(frequencies):
            print(f"  flags {key}: {frequencies[key]}")
    return 0


# -- argument plumbing ----------------------------------------------------


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="surd-sails",
        description="Exact continued fractions, sails, and period symmetry of quadratic surds.",
        epilog='An argument that starts with "-", such as a negative surd, goes after "--", '
               'which ends the options: surd-sails expand -- "-sqrt(2)". '
               'Options such as --json go before it.',
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="continued-fraction expansion of a surd")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("value", help="exact value of a periodic continued fraction")
    p.add_argument("cf")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("classify", help="period symmetry flags and witnesses")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("convergents", help="initial convergents of a surd")
    p.add_argument("spec")
    p.add_argument("-n", dest="count", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_convergents)

    p = sub.add_parser("equiv", help="test tail equivalence of two surds")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("auto", help="automorphism of the form of A*x^2 + B*x + C")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_auto)

    p = sub.add_parser("sail", help="vertex chains of the two adjacent sails")
    p.add_argument("spec")
    p.add_argument("--range", default="-2:8", metavar="K0:K1",
                   help="index window; use --range=-4:8 for negative bounds")
    p.add_argument("--svg", metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sail)

    p = sub.add_parser("survey", help="classify all reduced surds up to a discriminant")
    p.add_argument("--dmax", type=int, required=True)
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", dest="json_file", metavar="FILE")
    output.add_argument("--csv", dest="csv_file", metavar="FILE")
    p.set_defaults(func=_cmd_survey)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # results are exact and may exceed CPython's default 4,300-digit int-to-str
    # limit; inputs stay bounded by the OS limit on argument length
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except SurdSailsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # OSError: an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
