"""Command-line interface: character tables, verification suites, and label
bijections.  Exit codes: 0 success, 1 identity violation, 2 usage error."""
from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import affine, strips, verify, yangian
from .partitions import Partition
from .strips import BorderStrip, Motif, RapiditySeq

USAGE_ERROR = 2


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# char

CHAR_KINDS = (
    "bosonic",
    "fermionic-root",
    "fermionic-spinon",
    "spinon-enum",
    "yangian",
    "sl2-yangian",
)


def _build_table(kind: str, n: int, k: int, qmax: int):
    if n < 2:
        raise UsageError(f"--n must be >= 2, got {n}")
    if not 0 <= k < n:
        raise UsageError(f"--k must satisfy 0 <= k < n, got k={k}, n={n}")
    if qmax < 0:
        raise UsageError(f"--qmax must be >= 0, got {qmax}")
    if kind in ("fermionic-root", "fermionic-spinon", "spinon-enum", "sl2-yangian"):
        if n != 2:
            raise UsageError(f"--kind {kind} requires --n 2")
    if kind == "bosonic":
        return affine.bosonic_character(n, k, qmax)
    if kind == "fermionic-root":
        return affine.sl2_fermionic_character(k, "root", qmax)
    if kind == "fermionic-spinon":
        return affine.sl2_fermionic_character(k, "spinon", qmax)
    if kind == "spinon-enum":
        return affine.sl2_spinon_enumeration(k, qmax)
    if kind == "yangian":
        return yangian.yangian_decomposition(n, k, qmax)
    return yangian.sl2_yangian_decomposition(k, qmax)


def _laid_out(table, layout):
    """(weight, layout(row)) for every weight of the table, in weight order.
    The weights of one orbit share its row object (`CharacterTable.items`),
    so `layout` runs once per row object: once per orbit at most."""
    texts: dict[int, object] = {}
    for w, row in table.items():
        text = texts.get(id(row))
        if text is None:
            text = texts[id(row)] = layout(row)
        yield w, text


def _json_int_list(count: int) -> str:
    """The json layout of a list of `count` integers, as a `%d` template,
    at the depth of a row's "weight" and "coeffs"."""
    if not count:
        return "[]"
    return "[\n        " + ",\n        ".join(("%d",) * count) + "\n      ]"


def _write_table(table, fmt: str, out) -> None:
    """Write the table to `out` weight by weight, each line ending in a
    newline; every table builder drops its all-zero rows itself.
    `json` has the layout of `json.dumps(table.to_json_dict(), indent=2)`;
    the standard encoder falls back to pure Python when indenting, so the
    layout is written here instead: every row has as many weight coordinates
    and coefficients as the next, so one `%` template per table lays out a
    row.  In every format the text of an orbit's coefficients is laid out
    once and written at each of its weights."""
    if fmt == "json":
        delta = f"{table.delta.numerator}/{table.delta.denominator}"
        out.write(f'{{\n  "n": {table.n},\n  "k": {table.k},\n'
                  f'  "delta": "{delta}",\n  "qmax": {table.qmax},\n')
        row_text = ('%s    {\n      "weight": ' + _json_int_list(table.n - 1)
                    + ',\n      "coeffs": %s\n    }')
        coeffs_text = _json_int_list(table.qmax + 1)
        sep = '  "rows": [\n'
        for w, text in _laid_out(table, lambda row: coeffs_text % tuple(row)):
            out.write(row_text % (sep, *w, text))
            sep = ",\n"
        out.write("\n  ]\n}\n" if sep == ",\n" else '  "rows": []\n}\n')
    elif fmt == "csv":
        header = [f"w{i}" for i in range(1, table.n)] + ["qdegree", "coeff"]
        out.write(",".join(header) + "\n")
        # a weight's lines are its prefix joined to ["", "d,c\n", ...]
        for w, lines in _laid_out(table, lambda row: ["", *(
                f"{d},{c}\n" for d, c in enumerate(row) if c)]):
            out.write("".join(f"{x}," for x in w).join(lines))
    else:
        out.write(f"n={table.n} k={table.k} qmax={table.qmax} "
                  f"delta={table.delta.numerator}/{table.delta.denominator}\n")
        for w, terms in _laid_out(table, lambda row: " + ".join(
                f"{c}*q^{d}" for d, c in enumerate(row) if c) or "0"):
            out.write(f"weight {w}: {terms}\n")


# ---------------------------------------------------------------------------
# bijection

BIJECTION_OBJECTS = ("strip", "motif", "rapidity", "modes", "sl2-partition")


def _int(x) -> int:
    """`x` if it is a JSON integer; a float, string or bool raises TypeError."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def _parse_payload(kind: str, payload: str, n: int):
    try:
        if kind == "strip":
            data = json.loads(payload)
            rows = data["rows"] if isinstance(data, dict) else data
            return BorderStrip.from_rows(rows, n)
        if kind == "motif":
            return Motif.parse(payload, n)
        if kind == "rapidity":
            data = json.loads(payload)
            return RapiditySeq(n, _int(data["k"]), data["prefix"], _int(data["stab"]))
        if kind == "modes":
            return [_int(x) for x in json.loads(payload)]
        data = json.loads(payload)  # sl2-partition
        return Partition(data["lam"]), _int(data["N"])
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse {kind} payload {payload!r}: {exc}") from exc


def _to_strip(kind: str, obj, n: int) -> BorderStrip:
    if kind == "strip":
        return obj
    if kind == "motif":
        return strips.motif_to_strip(obj, n)
    if kind == "rapidity":
        return strips.rapidity_to_strip(obj, n)
    if kind == "modes":
        return strips.modes_to_strip(obj, n)
    lam, n_spinons = obj  # sl2-partition
    return strips.sl2_partition_to_strip(lam, n_spinons)


def _render_object(kind: str, obj) -> object:
    if kind == "strip":
        return obj.to_dict()
    if kind == "motif":
        return obj.serialize()
    return {"n": obj.n, "k": obj.k, "prefix": list(obj.prefix), "stab": obj.stab}


def _bijection(src: str, dst: str, payload: str, n: int) -> dict:
    if n < 2:
        raise UsageError(f"--n must be >= 2, got {n}")
    obj = _parse_payload(src, payload, n)
    try:
        strip = _to_strip(src, obj, n)
        reduced = strip.reduce()
        if dst == "strip":
            image = strip
        elif dst == "rapidity":
            image = strips.strip_to_rapidity(reduced)
        else:
            image = strips.rapidity_to_motif(strips.strip_to_rapidity(reduced))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    e = strips.energy(reduced)
    return {"from": src, "to": dst, "result": _render_object(dst, image),
            "energy": f"{e.numerator}/{e.denominator}"}


# ---------------------------------------------------------------------------
# verify

_INF = float("inf")


def _json_text(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, with `pad` (a newline and the current
    indent) in place of each newline.  The standard encoder falls back to
    pure Python when indenting; here the containers are laid out directly
    and each common scalar is written by the function the encoder itself
    uses.  A JSON text holds a raw newline only where the layout puts one,
    so whatever this does not lay out (a float that is not finite, a key
    that is not a str, a subclass) is left to the encoder and re-indented."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float and -_INF < obj < _INF:
        return float.__repr__(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        return f"[{inner}{f',{inner}'.join(_json_text(v, inner) for v in obj)}{pad}]"
    if kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        items = f",{inner}".join(f"{encode_basestring_ascii(key)}: {_json_text(v, inner)}"
                                 for key, v in obj.items())
        return f"{{{inner}{items}{pad}}}"
    return json.dumps(obj, indent=2).replace("\n", pad)


def _render_report(report, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report.to_json_dict())
    lines = []
    for c in report.cases:
        status = "PASS" if c.passed else "FAIL"
        extra = "" if c.passed else f"  locus: {c.locus}"
        lines.append(f"{status} {c.id} ({c.seconds:.3f}s){extra}")
    lines.append(
        f"{report.suite}: {sum(c.passed for c in report.cases)}/"
        f"{len(report.cases)} passed"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default already exits 2
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinonchars")
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", help="print a character table")
    p_char.add_argument("--kind", choices=CHAR_KINDS, required=True)
    p_char.add_argument("--n", type=int, required=True)
    p_char.add_argument("--k", type=int, required=True)
    p_char.add_argument("--qmax", type=int, required=True)
    p_char.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="pretty")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=sorted(verify.SUITES) + ["all"])
    p_verify.add_argument("--n", type=int, default=None,
                          help="restrict a suite that takes a rank to one rank")
    p_verify.add_argument("--qmax", type=int, default=None,
                          help="override the truncation order of a suite that "
                               "takes one")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="must be 1: cases run in one process")
    p_verify.add_argument("--format", choices=("json", "pretty"),
                          default="pretty")

    p_bij = sub.add_parser("bijection", help="map one label to another")
    p_bij.add_argument("--from", dest="src", required=True,
                       choices=BIJECTION_OBJECTS)
    p_bij.add_argument("--to", dest="dst", required=True,
                       choices=("strip", "motif", "rapidity"))
    p_bij.add_argument("--n", type=int, required=True)
    p_bij.add_argument("--payload", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "char":
            table = _build_table(args.kind, args.n, args.k, args.qmax)
            _write_table(table, args.format, sys.stdout)
            return 0
        if args.command == "verify":
            if args.jobs != 1:
                raise UsageError(
                    f"--jobs must be 1, got {args.jobs}: cases run in one process")
            if args.n is not None and args.n < 2:
                raise UsageError(f"--n must be >= 2, got {args.n}")
            if args.qmax is not None and args.qmax < 0:
                raise UsageError(f"--qmax must be >= 0, got {args.qmax}")
            try:
                cases = verify.build_suite(args.suite, n=args.n, qmax=args.qmax)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            report = verify.run_cases(args.suite, cases)
            print(_render_report(report, args.format))
            return 0 if report.passed else 1
        if args.command == "bijection":
            out = _bijection(args.src, args.dst, args.payload, args.n)
            print(json.dumps(out, indent=2))
            return 0
    except UsageError as exc:
        print(f"spinonchars: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
