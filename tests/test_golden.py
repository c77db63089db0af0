"""Byte-identity of the command line: the sha256 of the stdout, stderr and
exit code of each command in `COMMANDS`, pinned in `golden_sha256.json`.

The commands cover every `char` kind in every format at ranks 2-4 (the
usage errors of the rank-2 kinds among them), and the refusals of the
ceilings in `cli.CEILINGS`: ranks past `--n` refused by each command, a
table past the most numbers `char` writes, ranks past the `spinon-cut` and
`gz` entries, and orders past the `--qmax` entry of each suite that takes
one and of `all`.  Also the `decomposition` suite at rank 37, integer
options of 4000 digits out of their range, the 19 MB bosonic table at
(8, 0, 10), the `verify` reports with their case times masked, and
`bijection`s from every source to every target, two malformed payloads
and three whose strip would exceed the box ceiling among them, a motif
and a mode list refused by that ceiling, a strip
payload one character past the length that ceiling allows, a
rapidity payload whose class k is out of range, the
malformed command lines of `test_cli.MALFORMED`, and two lines spelled
`--opt=value`.  A command is keyed by its shell text, in which an
argument of more than 5 000 characters is named by its length and digest.  A
change that means to alter no output leaves every digest as it is; one that
means to alter an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says which commands changed and why."""
import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from spinonchars.cli import CHAR_KINDS, main
from test_cli import HUGE, MALFORMED

GOLDEN = Path(__file__).resolve().parent / "golden_sha256.json"


def _char(kind, n, k, qmax, fmt):
    return ("char", "--kind", kind, "--n", str(n), "--k", str(k), "--qmax", str(qmax),
            "--format", fmt)


def _bijection(src, dst, n, payload):
    return ("bijection", "--from", src, "--to", dst, "--n", str(n), "--payload", payload)


COMMANDS = (
    *(_char(kind, n, k, qmax, fmt)
      for kind in CHAR_KINDS for fmt in ("json", "csv", "pretty")
      for n in (2, 3, 4) for k in range(n) for qmax in (0, 3)),
    _char("bosonic", 1, 0, 2, "pretty"),
    _char("bosonic", 3, 3, 2, "pretty"),
    _char("yangian", 3, 0, -1, "pretty"),
    *(_char(kind, 2000, 0, 1, "pretty") for kind in ("bosonic", "yangian")),
    _char("bosonic", 50, 0, 2, "pretty"),
    *(_char("bosonic", n, k, qmax, "pretty")
      for n, k, qmax in (("-" + HUGE, 0, 1), (3, HUGE, 1), (3, 0, "-" + HUGE))),
    *(_char("bosonic", 8, 0, 10, fmt) for fmt in ("json", "csv", "pretty")),
    ("verify", "--suite", "all", "--format", "json"),
    ("verify", "--suite", "gz", "--n", "2", "--format", "pretty"),
    ("verify", "--suite", "sl2", "--qmax", "4", "--format", "pretty"),
    ("verify", "--suite", "schur", "--n", "2"),
    ("verify", "--suite", "gz", "--n", "201"),
    *(("verify", "--suite", "spinon-cut", "--n", rank) for rank in ("9", "200")),
    ("verify", "--suite", "gz", "--n", "11"),
    ("verify", "--suite", "decomposition", "--n", "37"),
    ("verify", "--suite", "sl2", "--qmax", "-" + HUGE),
    ("verify", "--suite", "sl2", "--jobs", HUGE),
    *(("verify", "--suite", suite, "--qmax", "1000")
      for suite in ("decomposition", "qids", "sl2", "spinon-cut", "all")),
    *(_bijection(src, dst, n, payload)
      for src, n, payload in (
          ("strip", 2, '{"rows": []}'),
          ("strip", 3, '{"rows": [1, 2]}'),
          ("strip", 3, "[2, 3, 1]"),
          ("strip", 3, '{"n": 3, "rows": [1, 2]}'),
          ("strip", 3, '{"rows": [1, 1, 1]}'),
          ("motif", 2, "10|"),
          ("motif", 3, "101010|"),
          ("rapidity", 3, '{"k": 0, "prefix": [1, 3], "stab": 4}'),
          ("rapidity", 2, '{"n": 2, "k": 1, "prefix": [1], "stab": 3}'),
          ("modes", 2, "[0, 0, 1, 2]"),
          ("modes", 3, "[0, 1, 1, 1, 2]"),
          ("sl2-partition", 2, '{"lam": [2, 1], "N": 3}'),
          ("sl2-partition", 2, '{"lam": [], "N": 1}'),
          ("strip", 2, "not json"),
          ("rapidity", 2, '{"k": 0, "prefix": [1.0], "stab": 2}'),
          ("strip", 2, "[1000000000]"),
          ("rapidity", 2, '{"k": 0, "prefix": [], "stab": 1000000000}'),
          ("sl2-partition", 2, '{"lam": [1000000000], "N": 1}'),
      )
      for dst in ("strip", "motif", "rapidity")),
    _bijection("rapidity", "rapidity", 2, '{"k": 5, "prefix": [], "stab": 0}'),
    _bijection("strip", "motif", 1000000, "[1]"),
    _bijection("motif", "strip", 1000000, "1|"),
    _bijection("motif", "strip", 2, "0" * 100001 + "|"),
    _bijection("modes", "strip", 2, json.dumps([*range(100001)])),
    _bijection("strip", "strip", 2, "[1]" + " " * (64 + 16 * 100000 - 2)),
    *(argv for argv, _ in MALFORMED),
    ("char", "--kind=yangian", "--n=3", "--k=1", "--qmax=2", "--format=csv"),
    ("bijection", "--from=motif", "--to=strip", "--n=2", "--payload=10|"),
)

# the most characters of an argument that its command's key spells out
_SPELLED = 5000


def _name(argv) -> str:
    return shlex.join(arg if len(arg) <= _SPELLED else
                      f"<{len(arg)} characters, sha256 "
                      f"{hashlib.sha256(arg.encode()).hexdigest()[:16]}>"
                      for arg in argv)


# a case's time is the one output that differs from run to run
_TIMES = (re.compile(r'"seconds": [0-9.e-]+'), re.compile(r"\(\d+\.\d{3}s\)"))


def _digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if argv[:1] == ("verify",):
        text = _TIMES[1].sub("(Xs)", _TIMES[0].sub('"seconds": 0', text))
    return hashlib.sha256(f"{text}\0{err.getvalue()}\0{code}".encode()).hexdigest()


def test_every_command_prints_its_pinned_bytes():
    golden = json.loads(GOLDEN.read_text())
    names = [_name(argv) for argv in COMMANDS]
    assert sorted(golden) == sorted(names), "regenerate golden_sha256.json"
    differ = [name for name, argv in zip(names, COMMANDS) if _digest(argv) != golden[name]]
    assert not differ, "output changed:\n" + "\n".join(differ)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps({_name(argv): _digest(argv) for argv in COMMANDS},
                                 indent=1) + "\n")
