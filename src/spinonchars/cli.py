"""Command-line interface: character tables, verification suites, and label
bijections.  Exit codes: 0 success, 1 identity violation, 2 usage error.

Only what `char` runs, `affine` and `yangian` (and through them `partitions`
and `qseries`), loads with this module: `verify` loads in the verify command,
and with it `strips` and `symfunc` for the suites that read them, and
`strips` loads in the bijection helpers."""
from __future__ import annotations

import gc
import json
import sys
from json.encoder import encode_basestring_ascii
from math import gcd, isqrt
from operator import add, itemgetter

from . import affine, yangian
from .partitions import _brief, partition

USAGE_ERROR = 2
# command -> {what: most}: every ceiling on outside input, each checked before
# any work and printed by `spinonchars COMMAND -h`.  A `verify` entry
# "SUITE --flag" bounds that flag of one suite, and `--suite all`, which
# passes each flag to every suite that reads it, is held to the smallest entry
# of each flag.  Each comment says what ran at the ceiling and past it (in
# process, one run each).
CEILINGS = {
    "char": {
        # `affine._decreasing_vectors` nests a generator per coordinate, out of
        # stack near rank 500; `--kind yangian` took 7 ms at 600 (order 1).
        "--n": 200,
        # weights * (n + qmax): each weight has n - 1 coordinates and qmax + 1
        # coefficients.  (200, 0, 1) holds 8 000 001 in 90 MB of json, 1.0 s
        # and 205 MB peak in a process; (50, 0, 2), at 71 981 052, wrote 875 MB.
        "numbers": 10**7,
    },
    "verify": {
        "--n": 200,  # as for char; `decomposition` took 0.02 s at 200
        # the census, built before any case runs: 8 587 weights at rank 8,
        # whose run took 2.5 s (4.4 s at q^40), and 22 129 at rank 9
        "spinon-cut --n": 8,
        # 2.2-3.3 s at rank 10, 5.6 s at 11 and 6.6 s at 12
        "gz --n": 10,
        # 1.4 s at q^320, 6.8 s at q^640
        "qids --qmax": 320,
        # 2.4 s at q^300, 6.0 s at q^400; past 30 s at q^1000
        "sl2 --qmax": 300,
        # 0.49 s at q^40 and 2.9 s at q^80 (ranks 2-4).  With --qmax every k
        # is taken, and the rank drives the cost: 12.6-14.0 s at q^40 --n 8,
        # and at --n 200 1.0 s at q^0, 4.5-4.8 s at q^4 (3.6 s of it the
        # bosonic route) and 53-65 s in 680 MB at q^10.
        "decomposition --qmax": 40,
        # 0.06 s at q^40 and 2.6 s at q^160 (ranks 2-4), 4.4 s at q^40 --n 8
        "spinon-cut --qmax": 40,
    },
    "bijection": {
        "--n": 200,  # as for char
        # a label's strip, its rapidities and its printed image take time and
        # memory linear in the strip's boxes, which a short payload can make
        # huge: 10^5 boxes took 0.17 s and 23 MB, 3 * 10^6 took 3.8 s and 271 MB
        "boxes": 10**5,
    },
}


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
    if not 0 <= k < n:
        raise UsageError(f"--k must satisfy 0 <= k < n, got k={_brief(str(k), 20)}, n={n}")
    if qmax < 0:
        raise UsageError(f"--qmax must be >= 0, got {_brief(str(qmax), 20)}")
    if n != 2 and kind in ("fermionic-root", "fermionic-spinon", "spinon-enum", "sl2-yangian"):
        raise UsageError(f"--kind {kind} requires --n 2")
    _check_numbers(n, k, qmax)
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


def _check_numbers(n: int, k: int, qmax: int) -> None:
    """Refuse a table of more numbers than the ceiling, its weights
    counted by `affine.weight_count` before any route runs.  A weight is
    that of one vector c with sum k and sum c_i^2 <= k + 2 qmax (see
    `affine.bosonic_character`), so every |c_i| <= isqrt(k + 2 qmax) = b,
    c_n follows from the rest, and a table of at most (2b + 1)^(n-1)
    weights under the ceiling passes without a count.  Every table holds a
    weight at degree 0, so a row longer than the ceiling is refused before
    the count."""
    ceiling = CEILINGS["char"]["numbers"]
    most = ceiling // (n + qmax)
    if (2 * isqrt(k + 2 * qmax) + 1) ** (n - 1) <= most:
        return
    if not most or affine.weight_count(n, k, qmax, most) > most:
        raise UsageError(f"--n {n} --k {k} --qmax {_brief(str(qmax), 20)} gives a table of "
                         f"more than {ceiling} numbers (n + qmax at each weight), "
                         "the most char writes")


def _write_table(orbits: dict, n: int, k: int, qmax: int, fmt: str, out) -> None:
    """Write the table (n, k, qmax) of orbit rows `orbits` to `out` in
    weight order, each line ending in a newline.  `json` is the text of
    `json.dumps(..., indent=2)` of {n, k, delta ("num/den"), qmax, rows},
    rows a list of {"weight": [...], "coeffs": [...]}, laid out here, as the
    standard encoder falls back to pure Python when indenting.  A row is its
    weight's head and rest from `affine.laid_out` (with the levels of
    `_levels`) and its orbit's text, the coefficients and the separator that
    opens the next row, laid out once per orbit."""
    common = gcd(k * (n - k), 2 * n)  # Delta_k = k(n - k)/2n, in lowest terms
    delta = f"{k * (n - k) // common}/{2 * n // common}"
    if fmt == "json":
        out.write(f'{{\n  "n": {n},\n  "k": {k},\n'
                  f'  "delta": "{delta}",\n  "qmax": {qmax},\n')
        head = '\n    {\n      "weight": '
        coeffs = ",\n        ".join(("%d",) * (qmax + 1))  # one `%d` a coefficient
        text = ',\n      "coeffs": [\n        ' + coeffs + "\n      ]\n    }," + head
        levels = _levels(n, "[", "\n        %d,", "\n        %d\n      ]", "[]")
        parts = affine.laid_out(orbits, levels, text.__mod__)
        if not parts:
            out.write('  "rows": []\n}\n')
            return
        _write_rows(parts, 3, '  "rows": [' + head, "," + head, out)
        out.write("\n  ]\n}\n")
    elif fmt == "csv":
        out.write(",".join([*(f"w{i}" for i in range(1, n)), "qdegree", "coeff"]) + "\n")
        # a weight's lines are its prefix joined to ["", "d,c\n", ...]
        parts = affine.laid_out(orbits, _levels(n, "", "%d,", "%d,", ""), lambda row: ["", *(
            f"{d},{c}\n" for d, c in enumerate(row) if c)])
        _write_rows([*map(str.join, map(add, parts[::3], parts[1::3]), parts[2::3])], 1,
                    "", "", out)
    else:
        out.write(f"n={n} k={k} qmax={qmax} delta={delta}\n")
        parts = affine.laid_out(
            orbits, _levels(n, "(", "%d, ", "%d,)" if n == 2 else "%d)", "()"),
            lambda row: ": " + (" + ".join(f"{c}*q^{d}" for d, c in enumerate(row) if c)
                                or "0") + "\nweight ")
        _write_rows(parts, 3, "weight ", "weight ", out)


def _levels(n: int, head: str, middle: str, last: str, empty: str) -> list:
    """The levels of `affine.laid_out` for a weight's text: `head`, then the
    n - 1 coordinates by the `%d` templates `middle` and, for the last one,
    `last`; `empty` is the whole text of the empty weight (n = 1)."""
    levels = [None, empty if n == 1 else "", *[middle.__mod__] * (n - 1)]
    if n > 1:
        levels[2] = last.__mod__
        levels[n] = (head + (last if n == 2 else middle)).__mod__
    return levels


# rows joined into one string per `out.write`
_ROWS_PER_WRITE = 4096


def _write_rows(parts: list, stride: int, opening: str, sep: str, out) -> None:
    """Write the rows of `parts`, `stride` strings each and the last of each
    ending in `sep`, after `opening` and without the last `sep`, if any."""
    if parts:
        parts[-1] = parts[-1][:len(parts[-1]) - len(sep)]
        out.write(opening)
    step = stride * _ROWS_PER_WRITE
    for start in range(0, len(parts), step):
        out.write("".join(parts[start:start + step]))


# ---------------------------------------------------------------------------
# bijection

BIJECTION_OBJECTS = ("strip", "motif", "rapidity", "modes", "sl2-partition")


def _int(x) -> int:
    """`x` if it is a JSON integer; a float, string or bool raises TypeError."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def _parse_payload(kind: str, payload: str, n: int):
    from .strips import from_rows, motif, rapidity
    try:
        if kind == "motif":
            _check_boxes(kind, len(payload) - 1)
            return motif(payload, n)
        # a payload within the box ceiling holds at most `boxes` numbers that
        # count, each at most `boxes` (8 characters with a separator at 10^5):
        # twice that, and 64 for the keys and brackets, bound its length
        most = 64 + 16 * CEILINGS["bijection"]["boxes"]
        if len(payload) > most:
            raise UsageError(f"the {kind} payload has more than {most} characters, "
                             "the most a bijection reads")
        data = json.loads(payload)
        if isinstance(data, dict) and _int(data.get("n", n)) != n:
            raise UsageError(f"the payload has n={_brief(str(data['n']), 20)}, but --n is {n}")
        if kind == "strip":
            rows = data["rows"] if isinstance(data, dict) else data
            _check_boxes(kind, sum(a for a in rows if type(a) is int and a > 0))
            return from_rows(rows, n)
        if kind == "rapidity":
            k, stab = _int(data["k"]), _int(data["stab"])
            _check_boxes(kind, stab)
            return rapidity(n, k, data["prefix"], stab)
        if kind == "modes":
            modes = [_int(x) for x in data]
            _check_boxes(kind, len(modes))
            return modes
        lam, n_spinons = partition(data["lam"]), _int(data["N"])  # sl2-partition
        _check_boxes(kind, n_spinons + 2 * (lam[0] if lam else 0))
        return lam, n_spinons
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse {kind} payload {_brief(repr(payload), 50)}: "
                         f"{_brief(str(exc), 90)}") from exc


def _check_boxes(kind: str, boxes: int) -> None:
    """Refuse a payload whose strip has more boxes than the ceiling,
    counted from its numbers before the strip is built: a strip's positive
    rows, a rapidity sequence's `stab`, a motif's bits (as many as its
    sequence's `stab` can be), a mode list's length (its strip's exact box
    count), and N + 2 lambda_1 for an sl2-partition
    (`strips.sl2_partition_to_strip`)."""
    ceiling = CEILINGS["bijection"]["boxes"]
    if boxes > ceiling:
        raise UsageError(f"the {kind} payload gives a strip of more than "
                         f"{ceiling} boxes, the most a bijection takes")


def _to_strip(kind: str, obj, n: int):
    from . import strips
    if kind == "strip":
        return obj
    if kind in ("motif", "rapidity"):  # both are the text of a sequence
        return strips.motif_to_strip(obj, n)
    if kind == "modes":
        return strips.modes_to_strip(obj, n)
    return strips.sl2_partition_to_strip(*obj)  # sl2-partition: (lambda, N)


def _render_object(kind: str, obj, n: int) -> object:
    from . import strips
    if kind == "strip":
        return strips.to_dict(obj, n)
    if kind == "rapidity":
        return strips.to_record(obj, n)
    return obj  # a motif


def _bijection(src: str, dst: str, payload: str, n: int) -> dict:
    from . import strips
    if src == "sl2-partition" and n != 2:
        raise UsageError("--from sl2-partition requires --n 2")
    obj = _parse_payload(src, payload, n)
    try:
        strip = _to_strip(src, obj, n)
        reduced = strips.reduce(strip, n)
        # a motif and a rapidity sequence are one text, printed two ways
        image = strip if dst == "strip" else strips.strip_to_rapidity(reduced, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    e = strips.energy(reduced, n)
    return {"from": src, "to": dst, "result": _render_object(dst, image, n),
            "energy": f"{e.numerator}/{e.denominator}"}


# ---------------------------------------------------------------------------
# json text, and the verify report

_INF = float("inf")


def _json_text(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2)`, with `pad` (a newline and the current
    indent) in place of each newline.  The standard encoder falls back to
    pure Python when indenting; here the containers are laid out directly,
    each common scalar is written by the function the encoder itself uses,
    and any other scalar (a float that is not finite, a subclass) by the
    unindented encoder, which writes a scalar as the indenting one does."""
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
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        ints = {*map(type, obj)} == {int}  # plain ints, with no bool or subclass
        items = map(int.__repr__, obj) if ints else [_json_text(v, inner) for v in obj]
        return f"[{inner}{f',{inner}'.join(items)}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = f",{inner}".join(f"{_json_key(key)}: {_json_text(v, inner)}"
                                 for key, v in obj.items())
        return f"{{{inner}{items}{pad}}}"
    return json.dumps(obj)


def _json_key(key) -> str:
    """A dict key as the encoder writes it: a str as itself, and any other
    key as in the encoder's text of {key: 0}."""
    return encode_basestring_ascii(key) if type(key) is str else json.dumps({key: 0})[1:-4]


def _render_report(report: dict, fmt: str) -> str:
    """The report of `verify.run_cases` as text.  "json" is the text of
    `json.dumps(report, indent=2)`: each case record, whose fields are those
    of `run_cases` in its order, is laid out by one f-string, and
    `_json_text` writes only the values."""
    if fmt == "json":
        pad = "\n      "  # the newline and indent of a field of a case record
        records = ",".join(
            f'\n    {{{pad}"id": {_json_text(c["id"])},{pad}"params": '
            f'{_json_text(c["params"], pad)},{pad}"pass": {_json_text(c["pass"])},'
            f'{pad}"locus": {_json_text(c["locus"], pad)},{pad}"seconds": '
            f'{_json_text(c["seconds"])}\n    }}' for c in report["cases"])
        cases = f"[{records}\n  ]" if records else "[]"
        return (f'{{\n  "suite": {_json_text(report["suite"])},\n  "passed": '
                f'{_json_text(report["passed"])},\n  "cases": {cases}\n}}')
    cases = report["cases"]
    lines = [f"{'PASS' if c['pass'] else 'FAIL'} {c['id']} ({c['seconds']:.3f}s)"
             + ("" if c["pass"] else f"  locus: {c['locus']}") for c in cases]
    lines.append(f"{report['suite']}: {sum(c['pass'] for c in cases)}/{len(cases)} passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the command line

# command -> (summary, {long option: int, str or a tuple of choices},
# {field: default}); an option without a default is required, and its
# field is its name without the leading "--"
COMMANDS = {
    "char": ("print a character table",
             {"--kind": CHAR_KINDS, "--n": int, "--k": int, "--qmax": int,
              "--format": ("json", "csv", "pretty")},
             {"format": "pretty"}),
    "verify": ("run a verification suite",
               {"--suite": ("bijections", "decomposition", "gz", "qids", "schur", "sl2",
                           "spinon-cut", "all"), "--n": int, "--qmax": int,
                "--jobs": int, "--format": ("json", "pretty")},
               {"n": None, "qmax": None, "jobs": 1, "format": "pretty"}),
    "bijection": ("map one label to another",
                  {"--from": BIJECTION_OBJECTS, "--to": ("strip", "motif", "rapidity"),
                   "--n": int, "--payload": str},
                  {}),
}
_HELP = ("-h", "--help")


def _help(command: str | None) -> str:
    if command is None:
        return "\n".join(["usage: spinonchars COMMAND [--option value ...]", "", *(
            f"  {name:<10} {summary}" for name, (summary, _, _) in COMMANDS.items()),
            "", "`spinonchars COMMAND -h` lists the options of COMMAND."])
    summary, options, defaults = COMMANDS[command]
    lines = [f"usage: spinonchars {command} [--option value ...]", "", summary, ""]
    for opt, kind in options.items():
        text = "integer" if kind is int else "string" if kind is str else "{%s}" % ",".join(kind)
        if opt[2:] in defaults:
            default = defaults[opt[2:]]
            text += " (optional)" if default is None else f" (default: {default})"
        lines.append(f"  {opt:<10} {text}")
    lines += ["", "ceilings (past one, exit 2 before any work):", *(
        f"  {what:<20} {most}" for what, most in CEILINGS[command].items())]
    return "\n".join(lines)


def _value(opt: str, kind, text: str):
    """`text` as the value of `opt`: an integer is an optional sign and ASCII
    digits, and a choice must be one of the table's."""
    if kind is int:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isascii() and digits.isdigit():
            try:
                return int(text)
            except ValueError:  # more digits than `int` converts
                pass
        raise UsageError(f"argument {opt}: invalid int value: {text!r}")
    if kind is not str and text not in kind:
        raise UsageError(f"argument {opt}: invalid choice: {text!r} "
                         f"(choose from {', '.join(kind)})")
    return text


def _parse(argv) -> dict | None:
    """The fields of a command line, read from `COMMANDS`: `command` and one
    field per option of that command.  Each option is `--opt value` or
    `--opt=value`, spelled in full; the token after `--opt` is its value
    unless it starts with `--`, and a repeated option keeps its last value.
    `-h` or `--help` prints the help and returns None."""
    command = argv[0] if argv else ""
    if command in _HELP:
        print(_help(None))
        return None
    if command not in COMMANDS:
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {command!r}")
    _, options, defaults = COMMANDS[command]
    fields = {"command": command, **defaults}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            print(_help(command))
            return None
        opt, eq, text = token.partition("=")
        if opt not in options:
            raise UsageError(f"unrecognized argument: {token!r} "
                             f"({command} takes {', '.join(options)})")
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise UsageError(f"argument {opt}: expected one argument")
        fields[opt[2:]] = _value(opt, options[opt], text)
    missing = [opt for opt in options if opt[2:] not in fields]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return fields


def _check_suite(suite: str, given: dict) -> None:
    """Refuse a value in `given` ({"--n": n, "--qmax": qmax}, None where a
    flag is not given) past an entry "SUITE --flag" of `CEILINGS["verify"]`
    for this suite, or for any suite under `--suite all`.  The entries are
    tried from the smallest, so `all` names the suite with the smallest
    entry of the flag, the first in the table on a tie."""
    for key, most in sorted(CEILINGS["verify"].items(), key=itemgetter(1)):
        name, _, flag = key.rpartition(" ")
        value = given.get(flag)
        if name and suite in (name, "all") and value is not None and value > most:
            raise UsageError(f"suite {name} takes {flag} <= {most}, got {_brief(str(value), 20)}")


def main(argv=None) -> int:
    # The objects that exist now (module-level definitions) live for the
    # process: freezing them keeps them out of every collection.  No command
    # leaves cyclic garbage, so the collector is off while one runs.  An
    # in-process caller gets the collector's state back, and what was frozen
    # here is unfrozen, so that its own cyclic garbage is still collected;
    # a heap the caller froze is left as it is.
    froze = not gc.get_freeze_count()
    if froze:
        gc.freeze()
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        if args["command"] == "verify" and args["jobs"] != 1:
            raise UsageError(f"--jobs must be 1, got {_brief(str(args['jobs']), 20)}: "
                             "cases run in one process")
        n = args["n"]
        most = CEILINGS[args["command"]]["--n"]
        if n is not None and not 2 <= n <= most:
            bound = ">= 2" if n < 2 else f"<= {most}"
            raise UsageError(f"--n must be {bound}, got {_brief(str(n), 20)}")
        if args["command"] == "char":
            k, qmax = args["k"], args["qmax"]
            _write_table(_build_table(args["kind"], n, k, qmax), n, k, qmax, args["format"],
                         sys.stdout)
            return 0
        if args["command"] == "verify":
            if args["qmax"] is not None and args["qmax"] < 0:
                raise UsageError(f"--qmax must be >= 0, got {_brief(str(args['qmax']), 20)}")
            _check_suite(args["suite"], {"--n": n, "--qmax": args["qmax"]})
            from . import verify
            try:
                cases = verify.build_suite(args["suite"], n=n, qmax=args["qmax"])
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            report = verify.run_cases(args["suite"], cases)
            print(_render_report(report, args["format"]))
            return 0 if report["passed"] else 1
        out = _bijection(args["from"], args["to"], args["payload"], n)
        print(_json_text(out))
        return 0
    except UsageError as exc:
        print(f"spinonchars: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if froze:
            gc.unfreeze()
        if enabled:
            gc.enable()


def __getattr__(name: str):
    """`cli.verify`, imported on first read, for `perfbench/child.py`; this
    goes once ROADMAP item 1 makes it import `spinonchars.verify` itself."""
    if name != "verify":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify
    return verify


if __name__ == "__main__":
    sys.exit(main())
