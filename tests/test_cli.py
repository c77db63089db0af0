"""Black-box CLI tests: exit codes, output determinism, and payload handling."""
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from itertools import accumulate
from operator import add, itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinonchars import affine, cli, strips, verify
from spinonchars.affine import (_decreasing_vectors, bosonic_character, dominant_weight,
                               exps_to_fw, orbit_size)
from spinonchars.cli import (CHAR_KINDS, COMMANDS, _build_table, _json_text,
                             _render_report, _write_table, main)
from spinonchars.verify import weight_rows
from oracles import hand_built, table_json_dict
from test_strips import RAPIDITY_REFUSALS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_char_bosonic_json_pinned(capsys):
    code, out, _ = run_cli(
        capsys, "char", "--kind", "bosonic", "--n", "2", "--k", "0",
        "--qmax", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["delta"] == "0/1"
    assert data["rows"] == [
        {"weight": [-2], "coeffs": [0, 1]},
        {"weight": [0], "coeffs": [1, 1]},
        {"weight": [2], "coeffs": [0, 1]},
    ]


def test_char_json_has_the_indent_2_layout(capsys):
    """`char --format json` writes the bytes `json.dumps(..., indent=2)` and
    `print` would, and its rows are the table's, in weight order."""
    for kind in CHAR_KINDS:
        n_values = (2, 3, 4) if kind in ("bosonic", "yangian") else (2,)
        for n in n_values:
            for k in range(n):
                for qmax in (0, 3):
                    argv = ("char", "--kind", kind, "--n", str(n), "--k", str(k),
                            "--qmax", str(qmax), "--format", "json")
                    code, out, _ = run_cli(capsys, *argv)
                    assert code == 0, argv
                    data = json.loads(out)
                    assert out == json.dumps(data, indent=2) + "\n", argv
                    table = _build_table(kind, n, k, qmax)
                    assert out == json.dumps(table_json_dict(table, n, k, qmax),
                                             indent=2) + "\n"
                    rows = [(tuple(r["weight"]), r["coeffs"]) for r in data["rows"]]
                    assert rows == [(w, list(row)) for w, row in weight_rows(table)], argv


def test_char_builders_return_no_zero_row():
    """`char` writes the rows of `weight_rows(table)` as built, so every
    builder drops its all-zero rows itself."""
    for kind in CHAR_KINDS:
        n_values = (2, 3, 4) if kind in ("bosonic", "yangian") else (2,)
        for n in n_values:
            for k in range(n):
                for qmax in range(7):
                    table = _build_table(kind, n, k, qmax)
                    pairs = weight_rows(table)
                    assert pairs, (kind, n, k, qmax)
                    zero = [w for w, row in pairs if not any(row)]
                    assert not zero, (kind, n, k, qmax, zero)


def test_empty_table_renders_in_every_format():
    rendered = {}
    for fmt in ("json", "csv", "pretty"):
        out = io.StringIO()
        _write_table({}, 3, 1, 2, fmt, out)
        rendered[fmt] = out.getvalue()
    assert rendered["json"] == json.dumps(table_json_dict({}, 3, 1, 2), indent=2) + "\n"
    assert '"rows": []' in rendered["json"]
    assert rendered["csv"] == "w1,w2,qdegree,coeff\n"
    assert rendered["pretty"] == "n=3 k=1 qmax=2 delta=1/3\n"


@pytest.mark.parametrize("n,k,qmax,rows", [
    (4, 1, 3, [((1, 0, 0), (1, 12, 345, 6789)),
               ((-3, 10, -12), (-5, 0, -170, 1)),
               ((0, -1, 1), (1, 12, 345, 6789)),
               ((-20, 0, 7), (0, 0, 0, 100000000000000000000))]),
    (2, 0, 4, [((w,), (w, -w, 10 * w, 0, -1)) for w in range(-12, 13, 3)]),
    (3, 2, 0, [((-1, -1), (7,)), ((2, 0), (-30,)), ((5, -4), (7,))]),
    (2, 1, 0, [((-101,), (-2,))]),
    (1, 0, 2, [((), (3, -1, 22))]),
], ids=["multi-digit", "rank-2", "rank-3-qmax-0", "rank-2-qmax-0", "rank-1"])
def test_json_table_layout_of_hand_built_tables(n, k, qmax, rows):
    """Tables no builder writes, with multi-digit and negative coefficients
    and weights, a single weight coordinate, qmax = 0 and no weight
    coordinate at all, are laid out as the indenting encoder lays them out."""
    table, out = hand_built(rows), io.StringIO()
    _write_table(table, n, k, qmax, "json", out)
    assert out.getvalue() == json.dumps(table_json_dict(table, n, k, qmax), indent=2) + "\n"


@pytest.mark.parametrize("n,k,qmax", [(6, 0, 8), (8, 0, 10)])
def test_orbit_expansion_builds_each_piece_once_in_weight_order(monkeypatch, n, k, qmax):
    """`laid_out` builds the groups of each tuple of c entries below the top
    once, lays out each coordinate value of each level once and each orbit's
    row once, within every group built the order of the integer keys is the
    sorted order of the weight tuples, and over the whole table each weight
    is its two-coordinate head and its rest, in sorted order."""
    table = bosonic_character(n, k, qmax)
    arrangements, built = affine._arrangements, []

    def spy(values, *args):
        groups = arrangements(values, *args)
        built.append((values, groups))
        return groups

    monkeypatch.setattr(affine, "_arrangements", spy)
    coordinates = []

    def coordinate(level):
        return lambda x: coordinates.append((level, x)) or (x,)

    rows = []
    levels = [None, (), *map(coordinate, range(2, n + 1))]
    parts = affine.laid_out(table, levels, lambda row: rows.append(row) or len(rows))
    heads, texts = parts[::3], parts[2::3]
    weights = [*map(add, heads, parts[1::3])]
    tuples = [values for values, _ in built]
    assert len(tuples) == len(set(tuples)) and len(coordinates) == len(set(coordinates))
    assert len(rows) == len(table) == len({*texts})
    assert all(rows[text - 1] is table[dominant_weight(w)] for w, text in zip(weights, texts))
    for values, groups in built:
        pairs = [pair for keys, pieces in groups.values() for pair in zip(keys, pieces)]
        assert len({key for key, _ in pairs}) == len(pairs), values
        assert [w for _, w in sorted(pairs, key=itemgetter(0))] == sorted(w for _, w in pairs)
    assert {*map(len, heads)} == {2}
    assert weights == sorted({*weights}) and len(weights) == sum(map(orbit_size, table))


def _distinct_arrangements(values: tuple):
    """Yield each distinct arrangement of the multiset `values` once: each
    distinct entry in turn, then every arrangement of the others."""
    if not values:
        yield ()
    for i, v in enumerate(values):
        if v not in values[:i]:
            for rest in _distinct_arrangements(values[:i] + values[i + 1:]):
                yield (v, *rest)


def _reference_texts(n, k, qmax, orbits) -> dict:
    """The three formats of `char`, written from the weights of each orbit
    found as the weights of the distinct arrangements of its c, with the
    standard json encoder."""
    rows = {}
    for key, row in orbits.items():
        c = (*accumulate(reversed(key), initial=0),)
        for p in _distinct_arrangements(c):
            rows[tuple(p[i] - p[i + 1] for i in range(n - 1))] = list(row)
    ordered = sorted(rows.items())
    rows_json = [{"weight": list(w), "coeffs": row} for w, row in ordered]
    delta = Fraction(k * (n - k), 2 * n)  # Delta_k
    delta = f"{delta.numerator}/{delta.denominator}"
    head = {"n": n, "k": k, "delta": delta, "qmax": qmax}
    csv = "".join([",".join([*(f"w{i}" for i in range(1, n)), "qdegree", "coeff"]) + "\n", *(
        ",".join(map(str, (*w, d, c))) + "\n" for w, row in ordered
        for d, c in enumerate(row) if c)])
    pretty = "".join([f"n={n} k={k} qmax={qmax} delta={delta}\n", *(
        f"weight {w}: " + (" + ".join(f"{c}*q^{d}" for d, c in enumerate(row) if c) or "0")
        + "\n" for w, row in ordered)])
    return {"json": json.dumps({**head, "rows": rows_json}, indent=2) + "\n",
            "csv": csv, "pretty": pretty}


# the most weights a drawn table holds, 7!/(2! 2!): an orbit of rank 7 whose
# c has two pairs of equal entries.  The reference texts take most of the
# time of a large table, and a run may draw two dozen tables of rank 7, so
# the bound keeps the test's time steady from run to run.
_MOST_WEIGHTS = 1260


@st.composite
def _hand_built_tables(draw):
    """(n, k, qmax, orbits): a table of rank 1 to 7 with up to four orbits,
    each named by a weight with coordinates of up to three digits of either
    sign, and coefficients of up to twelve digits of either sign, to
    q^0..q^4.  An orbit that would take the table past `_MOST_WEIGHTS`
    weights is left out."""
    n, qmax = draw(st.integers(1, 7)), draw(st.integers(0, 4))
    k = draw(st.integers(0, n - 1))
    coordinate = st.integers(-3, 3) | st.integers(-999, 999)
    coefficient = st.integers(-9, 9) | st.integers(-10**12, 10**12)
    rows = draw(st.lists(st.tuples(st.tuples(*[coordinate] * (n - 1)),
                                   st.lists(coefficient, min_size=qmax + 1, max_size=qmax + 1)),
                         max_size=4))
    orbits = {}
    for key, row in hand_built(rows).items():
        if sum(map(orbit_size, [*orbits, key])) <= _MOST_WEIGHTS:
            orbits[key] = row
    return n, k, qmax, orbits


@settings(max_examples=100, deadline=None)
@given(_hand_built_tables())
@example((1, 0, 2, hand_built([((), (3, -1, 22))])))
@example((3, 1, 2, {}))
@example((3, 0, 0, hand_built([((2, 0), (1,)), ((1, 1), (-20,))])))
@example((7, 3, 2, hand_built([((0, 999, 0, -120, 5, 7), (10**12, -1, 0))])))
@example((5, 2, 1, hand_built([((0, 1, 0, 0), (1, 2)), ((0, 0, 1, 0), (-3, 0))])))
@example((4, 1, 0, hand_built([((1, 0, 0), (5,)), ((0, 1, 0), (-7,))])))
def test_every_format_lays_out_hand_built_tables(table):
    """The json, csv and pretty texts of drawn tables are those written
    weight by weight from an expansion of each orbit that does not go
    through `laid_out`.  The examples are rank 1, the empty table, the
    orbits of (2, 0) and (1, 1), whose weights (0, -2) and (-1, 2) have
    equal keys if the key's base is 2 span instead of 2 span + 1, the first
    orbit's weight then coming first, a rank-7 orbit of three-digit
    coordinates at `_MOST_WEIGHTS` weights, two rank-5 orbits whose weights
    share heads (w_1, w_2) and interleave in the order of their rests, and
    rank-4 orbits with heads that hold one weight beside heads that hold
    two."""
    n, k, qmax, orbits = table
    expected = _reference_texts(n, k, qmax, orbits)
    for fmt in ("json", "csv", "pretty"):
        out = io.StringIO()
        _write_table(orbits, n, k, qmax, fmt, out)
        assert out.getvalue() == expected[fmt], fmt


def test_char_json_bytes_pinned_at_many_rows(capsys):
    """The sha256 of the 1 221-row table (n, k, qmax) = (6, 0, 6) as printed
    before each table was laid out by one row template."""
    code, out, _ = run_cli(capsys, "char", "--kind", "bosonic", "--n", "6",
                           "--k", "0", "--qmax", "6", "--format", "json")
    assert code == 0
    assert out.count('"weight"') == 1221
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7d66fd4c9ae427f7c8fe5e31f170a37e1c91c1b54af61575db837e1b21b84aed")


@pytest.mark.parametrize("fmt,digest", [
    ("json", "ab517f7576d03a282b48c6f368ff0f7989461b0f5197f4799b06c9c15c8d1c09"),
    ("csv", "7c48fc27f0e2f2583c0d09f7475dd076a8d7b41f09bb5752556c9e02ce5030d9"),
    ("pretty", "c28a528c970fcc8e003106e72c1912cc48cafe3fc58ab10dc6453de00332ca79"),
])
def test_char_output_bytes_pinned(capsys, fmt, digest):
    """The sha256 of each format at (n, k, qmax) = (4, 1, 6), as printed
    before tables were written row by row."""
    code, out, _ = run_cli(capsys, "char", "--kind", "bosonic", "--n", "4",
                           "--k", "1", "--qmax", "6", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind,n,k,qmax,fmt,digest", [
    ("yangian", 6, 0, 8, "csv",
     "93339dfff7f28f20084946ec1498e7496ac0109cc2fffc60563d7d3efd0ac523"),
    ("yangian", 6, 0, 8, "pretty",
     "2e94c9ba73414af27757bdbb7ae20d21b0478f8846e70f4bd9feec84a2b1d077"),
    ("bosonic", 7, 3, 6, "csv",
     "0af66873e827d245c9234323ce819f2dbe32b0cbebdf38be8e6de5af984a4305"),
    ("bosonic", 7, 3, 6, "pretty",
     "995f26241572db83406072fc6e88044e2b8729fd91160436dd2168e61436ccda"),
])
def test_char_orbit_expansion_bytes_pinned(capsys, kind, n, k, qmax, fmt, digest):
    """The sha256 of `char` in the csv and pretty formats at two points of
    rank 6 and 7, one of them off k = 0, as printed when tables were kept
    one row per weight: every format writes the orbits expanded to the same
    weights in the same order."""
    code, out, _ = run_cli(capsys, "char", "--kind", kind, "--n", str(n), "--k", str(k),
                           "--qmax", str(qmax), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["sl2-yangian", "spinon-enum"])
def test_char_sl2_json_bytes_pinned_deep(capsys, kind):
    """The sha256 of `char --format json` at (n, k, qmax) = (2, 1, 36), as
    printed before the sl2 Yangian sum was grouped by multiplicity class
    and partitions were enumerated on one stack."""
    code, out, _ = run_cli(capsys, "char", "--kind", kind, "--n", "2", "--k", "1",
                           "--qmax", "36", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2277a55f1879111e1e910deab630de4a0e3f93266d8d48fefe635f4dcac84e4c")


def test_verify_spinon_cut_results_pinned(capsys):
    """The sha256 of the (id, passed, locus) list of `verify --suite
    spinon-cut --qmax 20`, as reported before the alternating cuts were
    memoized by Weyl orbit; the case timings vary and are left out."""
    code, out, _ = run_cli(capsys, "verify", "--suite", "spinon-cut", "--qmax", "20",
                           "--format", "json")
    assert code == 0
    results = [[c["id"], c["pass"], c["locus"]] for c in json.loads(out)["cases"]]
    assert len(results) == 633
    assert hashlib.sha256(json.dumps(results).encode()).hexdigest() == (
        "77c91f84e579bcc70dadb7712aecadde665d0f66a39c2ea6013c6512db6f0315")


def test_char_rank_one_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "char", "--kind", "bosonic", "--n", "1", "--k", "0", "--qmax", "1",
    )
    assert code == 2
    assert "--n" in err


def test_char_fermionic_requires_rank_two(capsys):
    code, _, err = run_cli(
        capsys, "char", "--kind", "fermionic-root", "--n", "3", "--k", "0",
        "--qmax", "2",
    )
    assert code == 2
    assert "--n 2" in err


def test_char_bad_kind_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "char", "--kind", "nonsense", "--n", "2", "--k", "0", "--qmax", "1",
    )
    assert code == 2


def test_char_output_is_byte_deterministic(capsys):
    args = ("char", "--kind", "yangian", "--n", "3", "--k", "1",
            "--qmax", "3", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    header = first.splitlines()[0]
    assert header == "w1,w2,qdegree,coeff"


def test_char_kinds_agree_across_routes(capsys):
    outputs = []
    for kind in ("bosonic", "fermionic-root", "fermionic-spinon",
                 "spinon-enum", "yangian", "sl2-yangian"):
        code, out, _ = run_cli(
            capsys, "char", "--kind", kind, "--n", "2", "--k", "1",
            "--qmax", "5", "--format", "json",
        )
        assert code == 0
        outputs.append(json.loads(out)["rows"])
    assert all(rows == outputs[0] for rows in outputs)


def test_bijection_motif_to_strip(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "--from", "motif", "--to", "strip",
        "--n", "2", "--payload", "10|",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["rows"] == []
    assert data["energy"] == "0/1"


@pytest.mark.parametrize("n", [2, 3])
def test_bijection_reports_the_energy_of_a_full_column(capsys, n):
    """A full column stabilizes the empty strip: it is the class-0 vacuum
    and has energy 0, as the same label given as the empty strip does."""
    for payload in ('{"rows": []}', json.dumps({"rows": [1] * n})):
        code, out, _ = run_cli(
            capsys, "bijection", "--from", "strip", "--to", "rapidity",
            "--n", str(n), "--payload", payload,
        )
        assert code == 0
        data = json.loads(out)
        assert data["result"] == {"n": n, "k": 0, "prefix": [], "stab": 0}
        assert data["energy"] == "0/1", payload


def test_bijection_strip_to_rapidity_and_back(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "--from", "strip", "--to", "rapidity",
        "--n", "3", "--payload", '{"rows": [1, 2]}',
    )
    assert code == 0
    seq = json.loads(out)["result"]
    code, out, _ = run_cli(
        capsys, "bijection", "--from", "rapidity", "--to", "strip",
        "--n", "3", "--payload", json.dumps(seq),
    )
    assert code == 0
    assert json.loads(out)["result"]["rows"] == [1, 2]


def test_bijection_sl2_partition_payload(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "--from", "sl2-partition", "--to", "strip",
        "--n", "2", "--payload", '{"lam": [2, 1], "N": 3}',
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["rows"] == [2, 3, 2]
    assert data["energy"] == "21/4"


def test_bijection_bad_payload_is_usage_error(capsys):
    """Malformed JSON, any number that is not a JSON integer (a float, a
    string or a bool), a motif bit that is not the ASCII digit 0 or 1
    (such as the fullwidth digits of "１０|"), and a rapidity class k
    outside 0..n-1, is refused rather than truncated, read as a digit or
    reduced mod n."""
    for src, payload in (
        ("strip", "not json"),
        ("strip", '{"rows": [1.5, 2]}'),
        ("strip", '{"rows": [true, 2]}'),
        ("strip", '{"rows": ["0", 2]}'),
        ("modes", "[0, 0.7, 1]"),
        ("modes", "[0, false]"),
        ("rapidity", '{"k": 0.5, "prefix": [], "stab": 0}'),
        ("rapidity", '{"k": 0, "prefix": [1.0], "stab": 2}'),
        ("rapidity", '{"k": 0, "prefix": [], "stab": "2"}'),
        ("rapidity", '{"k": 5, "prefix": [], "stab": 0}'),
        ("sl2-partition", '{"lam": [1.5], "N": 2}'),
        ("sl2-partition", '{"lam": [1], "N": true}'),
        ("motif", "\uff11\uff10|"),
    ):
        code, out, err = run_cli(
            capsys, "bijection", "--from", src, "--to", "motif",
            "--n", "2", "--payload", payload,
        )
        assert code == 2, (src, payload, out)
        assert f"{src} payload" in err, (src, payload, err)


def test_bijection_motif_run_is_refused_as_rapidities(capsys):
    """A motif's 1-bits are the rapidities of its sequence, so n of them in
    a row are refused with the sequence's message."""
    code, out, err = run_cli(capsys, "bijection", "--from", "motif", "--to", "strip",
                             "--n", "3", "--payload", "111|")
    assert (code, out) == (2, "")
    assert err == ("spinonchars: error: cannot parse motif payload '111|': "
                   "3 consecutive rapidities ending at 3\n")


def test_bijection_mode_gap_names_only_the_first_missing_mode(capsys):
    """A mode list is read in time linear in its length, not in its largest
    mode: the 12-byte payload [0, 1000000] is refused at once, on one short
    line that names the first missing mode, not all 999 999 of them."""
    code, out, err = run_cli(
        capsys, "bijection", "--from", "modes", "--to", "strip",
        "--n", "2", "--payload", "[0, 1000000]",
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 200, err
    assert "gap in mode values: 1 missing" in err


_PAST_CEILING = "the {} payload gives a strip of more than {} boxes, the most a bijection takes"


@pytest.mark.parametrize("src,payload", [
    ("strip", "[1000000000]"),
    ("strip", '{"rows": [60000, 0, 40001]}'),
    ("rapidity", '{"k": 0, "prefix": [], "stab": 1000000000}'),
    ("sl2-partition", '{"lam": [1000000000], "N": 1}'),
    ("sl2-partition", '{"lam": [], "N": 3000000}'),
    pytest.param("motif", "0" * 100001 + "|", id="motif-100001-bits"),
    pytest.param("modes", json.dumps([*range(100001)]), id="modes-100001-long"),
])
def test_bijection_refuses_a_strip_past_the_ceiling_at_once(capsys, src, payload):
    """A payload whose numbers give a strip of more than the ceiling's
    10^5 boxes is refused on one short line within 50 ms,
    before a list as long as the strip is built (the fifth payload took
    3.8 s and 271 MB without the ceiling).  A motif is measured by its bits
    and a mode list by its length, so the motif of 100 001 zero bits and the
    modes 0..100 000, each a strip of 100 001 boxes at n = 2, are refused
    (2 000 000 of either took 3.4 s and 216 MB when only a rapidity, strip
    or sl2-partition payload was measured)."""
    assert cli.CEILINGS["bijection"]["boxes"] == 100000
    for dst in ("strip", "motif", "rapidity"):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "bijection", "--from", src, "--to", dst,
                                 "--n", "2", "--payload", payload)
        elapsed = time.perf_counter() - started
        assert (code, out) == (2, "")
        assert err == f"spinonchars: error: {_PAST_CEILING.format(src, 100000)}\n"
        assert len(err) <= 200 and elapsed < 0.05, (dst, elapsed)


def test_bijection_ceiling_counts_each_payload_from_its_numbers(capsys, monkeypatch):
    """A strip payload is measured by the sum of its rows, a rapidity payload
    by `stab`, a motif by its bits, a mode list by its length and an
    sl2-partition by N + 2 lambda_1, its strip's boxes; a payload at the
    ceiling is answered, and one box more is refused."""
    monkeypatch.setitem(cli.CEILINGS["bijection"], "boxes", 10)
    for src, at, past in (
        ("strip", "[4, 6]", "[5, 0, 6]"),
        ("rapidity", '{"k": 0, "prefix": [], "stab": 10}',
         '{"k": 0, "prefix": [], "stab": 11}'),
        ("sl2-partition", '{"lam": [4, 1], "N": 2}', '{"lam": [4, 1], "N": 3}'),
        ("motif", "0" * 10 + "|", "0" * 11 + "|"),
        ("modes", json.dumps([*range(10)]), json.dumps([*range(11)])),
    ):
        code, out, _ = run_cli(capsys, "bijection", "--from", src, "--to", "strip",
                               "--n", "2", "--payload", at)
        assert code == 0, (src, at)
        assert sum(json.loads(out)["result"]["rows"]) <= 10 + 2, (src, at)
        code, out, err = run_cli(capsys, "bijection", "--from", src, "--to", "strip",
                                 "--n", "2", "--payload", past)
        assert (code, out, err) == (
            2, "", f"spinonchars: error: {_PAST_CEILING.format(src, 10)}\n"), (src, past)


_TOO_LONG = "the {} payload has more than {} characters, the most a bijection reads"


@pytest.mark.parametrize("src,payload", [
    ("strip", "[1]"),
    ("rapidity", '{"k": 1, "prefix": [], "stab": 1}'),
    ("modes", "[0]"),
    ("sl2-partition", '{"lam": [], "N": 1}'),
])
def test_bijection_refuses_a_payload_past_its_length_at_once(capsys, monkeypatch, src,
                                                            payload):
    """A JSON payload is refused unread past 64 characters and 16 a box of
    the ceiling, twice what the numbers of a payload within it take: one of
    that length, padded with spaces, is answered, and one character more is
    refused within 50 ms (16.9 MB of modes took 0.29 s to be refused by the
    box count when the whole payload was parsed first).  Under a ceiling of
    10 boxes that is 224 characters."""
    for boxes in (10, 100000):
        monkeypatch.setitem(cli.CEILINGS["bijection"], "boxes", boxes)
        most = 64 + 16 * boxes
        at = payload + " " * (most - len(payload))
        code, _, err = run_cli(capsys, "bijection", "--from", src, "--to", "strip",
                               "--n", "2", "--payload", at)
        assert (code, err) == (0, ""), (src, boxes)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "bijection", "--from", src, "--to", "strip",
                                 "--n", "2", "--payload", at + " ")
        elapsed = time.perf_counter() - started
        assert (code, out, err) == (
            2, "", f"spinonchars: error: {_TOO_LONG.format(src, most)}\n"), (src, boxes)
        assert elapsed < 0.05, (src, boxes, elapsed)


@pytest.mark.parametrize("args,error,message",
                         [case for case in RAPIDITY_REFUSALS if case[0][0] >= 2])
def test_bijection_rapidity_payload_refusals(capsys, args, error, message):
    """Each refusal of `strips.rapidity` reaches `bijection --from rapidity`
    with its message, as a usage error, for every target.  (A rank below 2
    is refused by --n before the payload is read.)"""
    n, k, prefix, stab = args
    payload = json.dumps({"k": k, "prefix": prefix, "stab": stab})
    for dst in ("strip", "motif", "rapidity"):
        code, out, err = run_cli(capsys, "bijection", "--from", "rapidity", "--to", dst,
                                 "--n", str(n), "--payload", payload)
        assert (code, out, err) == (2, "", f"spinonchars: error: cannot parse rapidity "
                                           f"payload {payload!r}: {message}\n"), dst


@pytest.mark.parametrize("src,payload", [
    ("rapidity", json.dumps({"k": 1, "prefix": [*range(1, 100000, 2)], "stab": 100000})),
    ("motif", "10" * 50000 + "|"),
], ids=["rapidity", "motif"])
def test_bijection_reads_a_label_at_the_ceiling_in_linear_time(capsys, src, payload):
    """A rapidity or motif payload of 10^5 positions, every other one a
    member, is answered within 2 s for each target.  Each took over 90 s
    when a membership test scanned the prefix, once per position."""
    for dst in ("strip", "motif", "rapidity"):
        started = time.perf_counter()
        code, _, _ = run_cli(capsys, "bijection", "--from", src, "--to", dst,
                             "--n", "3", "--payload", payload)
        elapsed = time.perf_counter() - started
        assert code == 0 and elapsed < 2, (dst, elapsed)


_LONG = 20000


@pytest.mark.parametrize("src,payload,reason,short,message", [
    ("modes", json.dumps([*range(_LONG), 0]),
     "modes must be weakly increasing: 20001 entries, [19999:20001] = [19999, 0]",
     "[0, 2, 1]", "modes must be weakly increasing: [0, 2, 1]"),
    ("modes", json.dumps([*range(_LONG), _LONG + 1]),
     "gap in mode values: 20000 missing from 20001 entries, [19999:20001] = [19999, 20001]",
     "[0, 2]", "gap in mode values: 1 missing from [0, 2]"),
    ("strip", json.dumps([1] * _LONG + ["x"]), "row lengths must be ints, got 'x'",
     '[1, "x"]', """cannot parse strip payload '[1, "x"]': row lengths must be ints, got 'x'"""),
    ("motif", "1" * _LONG, "motif string must end with the stabilization mark '|'",
     "11", "cannot parse motif payload '11': "
           "motif string must end with the stabilization mark '|'"),
    ("rapidity", json.dumps({"k": 0, "prefix": [*range(_LONG, 0, -1)], "stab": _LONG}),
     "prefix must be strictly increasing: 20000 entries, [0:2] = [20000, 19999]",
     '{"k": 0, "prefix": [2, 1], "stab": 2}',
     """cannot parse rapidity payload '{"k": 0, "prefix": [2, 1], "stab": 2}': """
     "prefix must be strictly increasing: (2, 1)"),
    ("sl2-partition", json.dumps({"lam": [*range(1, _LONG + 1)], "N": 2}),
     "parts not weakly decreasing: 20000 entries, [0:2] = [1, 2]",
     '{"lam": [1, 2], "N": 3}',
     """cannot parse sl2-partition payload '{"lam": [1, 2], "N": 3}': """
     "parts not weakly decreasing: (1, 2)"),
    ("strip", json.dumps([1] * _LONG + [-1]),
     "row lengths must be positive: 20001 entries, [19999:20001] = [1, -1]",
     "[1, -2, 3]", "cannot parse strip payload '[1, -2, 3]': "
                   "row lengths must be positive: [1, -2, 3]"),
    ("motif", "1" * _LONG + "2|",
     "motif bits must be the characters 0 and 1: 20001 entries, [19999:20001] = ['1', '2']",
     "12|", "cannot parse motif payload '12|': motif bits must be the characters 0 and 1: '12'"),
    ("strip", f'{{"n": {"1" * 4000}, "rows": []}}',
     f"the payload has n={'1' * 17}..., but --n is 2",
     '{"n": 3, "rows": []}', "the payload has n=3, but --n is 2"),
    ("rapidity", f'{{"k": {"1" * 4000}, "prefix": [], "stab": 0}}',
     f"class k must satisfy 0 <= k < n, got k={'1' * 48}...",
     '{"k": 5, "prefix": [], "stab": 0}',
     """cannot parse rapidity payload '{"k": 5, "prefix": [], "stab": 0}': """
     "class k must satisfy 0 <= k < n, got k=5, n=2"),
])
def test_bijection_error_on_a_long_payload_is_one_short_line(
        capsys, src, payload, reason, short, message):
    """A payload of 20 000 entries, or with a 4 000-digit number, is refused
    on one line of at most 200 characters that keeps the reason and names
    the first offending entry, not on a line as long as the payload; a
    short payload's message quotes it whole, as before."""
    code, out, err = run_cli(capsys, "bijection", "--from", src, "--to", "strip",
                             "--n", "2", "--payload", payload)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) <= 200, len(err)
    assert err.endswith(f"{reason}\n"), err
    code, out, err = run_cli(capsys, "bijection", "--from", src, "--to", "strip",
                             "--n", "2", "--payload", short)
    assert (code, out, err) == (2, "", f"spinonchars: error: {message}\n")


def test_bijection_sl2_partition_requires_rank_two(capsys):
    """An sl2 partition labels a rank-2 strip, so any other --n is refused
    rather than answered at rank 2."""
    code, out, err = run_cli(
        capsys, "bijection", "--from", "sl2-partition", "--to", "strip",
        "--n", "3", "--payload", '{"lam": [1], "N": 2}',
    )
    assert (code, out) == (2, "")
    assert err == "spinonchars: error: --from sl2-partition requires --n 2\n"


@pytest.mark.parametrize("src,payload", [
    ("rapidity", '{"n": 3, "k": 1, "prefix": [1, 3], "stab": 4}'),
    ("strip", '{"n": 3, "rows": [1, 2]}'),
])
def test_bijection_payload_rank_must_match(capsys, src, payload):
    """A payload that carries its own "n" is answered only at that rank:
    at any other --n it is refused, and at its own it is read as before."""
    code, out, err = run_cli(capsys, "bijection", "--from", src, "--to", "motif",
                             "--n", "2", "--payload", payload)
    assert (code, out) == (2, "")
    assert err == "spinonchars: error: the payload has n=3, but --n is 2\n"
    code, out, _ = run_cli(capsys, "bijection", "--from", src, "--to", "motif",
                           "--n", "3", "--payload", payload)
    assert code == 0
    assert json.loads(out)["from"] == src


def test_verify_suite_exit_zero_on_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "sl2", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    ids = [c["id"] for c in report["cases"]]
    assert ids == sorted(ids)
    assert all("seconds" in c for c in report["cases"])


def test_verify_json_report_has_the_indent_2_layout():
    """`verify --format json` writes the bytes of `json.dumps(report, indent=2)`
    without running that encoder: for a passing suite, for every case of
    `--suite all`, for a report with no case, and for a report whose failing
    cases carry a dict, a string and a list as their loci."""
    passing = verify.run_cases("gz", verify.build_suite("gz", n=2))
    assert passing["passed"]
    everything = verify.run_cases("all", verify.build_suite("all"))
    assert everything["passed"] and len(everything["cases"]) == 2631
    empty = verify.run_cases("empty", [])
    assert empty == {"suite": "empty", "passed": True, "cases": []}
    failing = verify.run_cases("made-up", [
        verify.Case("a[1]", {"n": 2, "rows": [3, 1], "variant": "x\ty"},
                    lambda **_: {"weight": [1, -1], "q_degree": 0, "lhs": 2, "rhs": None}),
        verify.Case("b", {}, lambda **_: "exception: \u00e9 \"quoted\"\n"),
        verify.Case("c", {"lam": []}, lambda **_: [[], {}, 1.5, True, False]),
        verify.Case("d", {"n": 3}, lambda **_: None),
    ])
    assert not failing["passed"]
    for report in (passing, everything, empty, failing):
        assert _render_report(report, "json") == json.dumps(report, indent=2)


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers() | st.booleans() | st.none()
                                     | st.floats(allow_nan=True, allow_infinity=True),
                                     inner, max_size=3)),
    max_leaves=20,
))
@example([3, -10**20, 0])
@example([1, True, 0, False])
def test_json_text_matches_the_indenting_encoder(value):
    """Any JSON value, non-str keys, tuples and non-finite floats included."""
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_what_the_encoder_refuses():
    """A key or a value JSON has no text for raises the encoder's TypeError."""
    for value in ({(1, 2): 0}, [{"a": object()}]):
        with pytest.raises(TypeError) as ours:
            _json_text(value)
        with pytest.raises(TypeError) as encoder:
            json.dumps(value, indent=2)
        assert str(ours.value) == str(encoder.value)


def test_verify_jobs_accepts_only_one(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sl2", "--jobs", "1",
                           "--format", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["cases"]]
    code, _, err = run_cli(capsys, "verify", "--suite", "sl2", "--jobs", "2")
    assert code == 2
    assert "one process" in err
    monkeypatch.setenv("SPINONCHARS_JOBS", "2")
    code, out, _ = run_cli(capsys, "verify", "--suite", "sl2", "--format", "json")
    assert code == 0
    assert [c["id"] for c in json.loads(out)["cases"]] == ids


@pytest.mark.parametrize("suite,prefix", [("sl2", "sl2-four-way["),
                                          ("decomposition", "yangian["),
                                          ("spinon-cut", "cut-forms[")])
def test_verify_qmax_zero_is_honoured(capsys, suite, prefix):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--qmax", "0",
                           "--format", "json")
    assert code == 0
    cases = [c for c in json.loads(out)["cases"] if c["id"].startswith(prefix)]
    assert cases
    assert all(c["params"]["qmax"] == 0 for c in cases)


@pytest.mark.parametrize("suite,count", [
    ("bijections", 212), ("decomposition", 81), ("gz", 388), ("qids", 274),
    ("schur", 1041), ("sl2", 2), ("spinon-cut", 633), ("all", 2631),
])
def test_suite_default_case_counts(suite, count):
    # the defaults are the pinned acceptance bounds: lowering one drops cases
    assert len(verify.build_suite(suite)) == count


def test_verify_rank_and_order_overrides(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "decomposition", "--n", "2",
        "--qmax", "6", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert any(c["id"].startswith("yangian[n=2") for c in report["cases"])
    assert not any(c["id"].startswith("yangian[n=3") for c in report["cases"])


@pytest.mark.parametrize("suite,flag", [
    ("schur", "--qmax"), ("schur", "--n"), ("sl2", "--n"), ("qids", "--n"),
    ("bijections", "--qmax"), ("gz", "--qmax"),
])
def test_verify_rejects_an_override_the_suite_does_not_read(capsys, suite, flag):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, "3")
    assert code == 2
    assert flag in err
    assert out == ""


def test_verify_all_passes_each_suite_the_overrides_it_reads():
    expected = [
        *verify.build_suite("bijections", n=3),
        *verify.build_suite("decomposition", n=3, qmax=2),
        *verify.build_suite("gz", n=3),
        *verify.build_suite("qids", qmax=2),
        *verify.build_suite("schur"),
        *verify.build_suite("sl2", qmax=2),
        *verify.build_suite("spinon-cut", n=3, qmax=2),
    ]
    cases = verify.build_suite("all", n=3, qmax=2)
    assert [(c.id, c.params) for c in cases] == [(c.id, c.params) for c in expected]


def test_each_case_reruns_from_its_report_record(capsys):
    """A case is (id, params, check) and runs as `check(**params)`: its
    params survive a JSON round trip and name exactly the parameters of
    `check`, so one record of each kind in a `verify --format json` report
    re-runs to the same verdict and locus."""
    suites = (verify.build_suite("all"), verify.build_suite("all", n=3, qmax=2))
    for cases in suites:
        for case in cases:
            assert json.loads(json.dumps(case.params)) == case.params, case.id
            code = case.check.__code__
            assert sorted(case.params) == sorted(code.co_varnames[:code.co_argcount]), case.id
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "3", "--qmax", "2",
                           "--format", "json")
    assert code == 0
    first = {}
    for record in json.loads(out)["cases"]:
        first.setdefault(record["id"].split("[")[0], record)
    assert len(first) == 19
    checks = {case.id: case.check for case in suites[1]}
    for record in first.values():
        locus = checks[record["id"]](**record["params"])
        assert (locus is None, json.loads(json.dumps(locus))) == (
            record["pass"], record["locus"]), record["id"]


def test_bijection_harness_runs_the_recorded_ranks(capsys, monkeypatch):
    censuses = []
    discover = strips.discover_rapidity_convention

    def spy(*args, **kwargs):
        report = discover(*args, **kwargs)
        censuses.append(report["census"])
        return report

    monkeypatch.setattr(strips, "discover_rapidity_convention", spy)
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijections", "--n", "4",
                           "--format", "json")
    assert code == 0
    harness = [c for c in json.loads(out)["cases"]
               if c["id"] == "rapidity-convention-harness"]
    assert harness[0]["params"] == {"max_size": 6, "ranks": [4]}
    assert censuses == [harness[0]["params"]]


def test_bijection_harness_reports_a_record_without_its_expected_energy(monkeypatch):
    discover = strips.discover_rapidity_convention

    def drop_expected(*args, **kwargs):
        report = discover(*args, **kwargs)
        report["conventions"]["tail"]["mismatches"][0].pop("expected")
        return report

    monkeypatch.setattr(strips, "discover_rapidity_convention", drop_expected)
    cases = [c for c in verify.build_suite("bijections", n=2)
             if c.id == "rapidity-convention-harness"]
    result = verify.run_cases("bijections", cases)["cases"][0]
    assert not result["pass"]
    assert "tail" in result["locus"] and "expected" not in result["locus"]


def test_verify_bad_rank_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "sl2", "--n", "1")
    assert code == 2
    assert "--n" in err


def _spinon_cut_census(n):
    """The number of weights in the spinon-cut census at rank n, the weights
    of `bosonic_character(n, k, 2)` for every k, counted from the orbit
    sizes of their dominant weights without expanding one."""
    return sum(orbit_size(exps_to_fw(c))
               for k in range(n) for c in _decreasing_vectors(n, k, k + 4))


@pytest.mark.parametrize("suite,rank", [("spinon-cut", 9), ("spinon-cut", 200), ("all", 9)])
def test_spinon_cut_refuses_a_rank_past_its_census(capsys, monkeypatch, suite, rank):
    """`spinon-cut` builds every weight of its census before a case runs:
    8 587 at rank 8, whose run took 2.5 s, and 22 129 at rank 9.  Its
    ceiling is the last rank under 10 000 weights, and a rank past it is
    refused on one line with exit 2 within 50 ms, before any suite builds a
    case, also when `--suite all` passes it on."""
    ceiling = cli.CEILINGS["verify"]["spinon-cut --n"]
    assert [_spinon_cut_census(n) for n in (8, 9)] == [8587, 22129]
    assert _spinon_cut_census(ceiling) < 10_000 < _spinon_cut_census(ceiling + 1)
    monkeypatch.setattr(verify, "SUITES", {name: None for name in verify.SUITES})
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n", str(rank))
    elapsed = time.perf_counter() - started
    assert (code, out) == (2, "")
    assert err == f"spinonchars: error: suite spinon-cut takes --n <= {ceiling}, got {rank}\n"
    assert elapsed < 0.05, elapsed


@pytest.mark.parametrize("argv,suite,ceiling", [
    (("gz", "--n", "11"), "gz", cli.CEILINGS["verify"]["gz --n"]),
    (("all", "--n", "11"), "spinon-cut", cli.CEILINGS["verify"]["spinon-cut --n"]),
    (("all", "--n", "37"), "spinon-cut", cli.CEILINGS["verify"]["spinon-cut --n"]),
])
def test_verify_refuses_a_rank_past_its_suite_ceiling(capsys, monkeypatch, argv, suite, ceiling):
    """`gz` grows with the rank (it took 18 s at rank 12), so it has a
    ceiling, and `all` takes the smallest; a rank past it is refused on one
    line with exit 2 within 50 ms, before any suite builds a case."""
    monkeypatch.setattr(verify, "SUITES", {name: None for name in verify.SUITES})
    assert cli.CEILINGS["verify"]["spinon-cut --n"] < cli.CEILINGS["verify"]["gz --n"]
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", *argv)
    elapsed = time.perf_counter() - started
    assert (code, out) == (2, "")
    assert err == f"spinonchars: error: suite {suite} takes --n <= {ceiling}, got {argv[2]}\n"
    assert elapsed < 0.05, elapsed


# suite -> its --qmax ceiling
_QMAX_CEILINGS = {key.split()[0]: most for key, most in cli.CEILINGS["verify"].items()
                  if key.endswith(" --qmax")}


@pytest.mark.parametrize("suite", [*sorted(_QMAX_CEILINGS), "all"])
def test_verify_refuses_a_qmax_past_its_suite_ceiling(capsys, monkeypatch, suite):
    """Each suite that takes `--qmax` has a ceiling on it (`sl2` ran past
    30 s at q^1000), and `all` takes the smallest, the first in the table
    on a tie.  A value at the ceiling passes the check, and one past it, up
    to 4000 digits, is refused on one line with exit 2 within 50 ms, before
    any suite builds a case."""
    assert sorted(_QMAX_CEILINGS) == ["decomposition", "qids", "sl2", "spinon-cut"]
    named = min(_QMAX_CEILINGS, key=_QMAX_CEILINGS.get) if suite == "all" else suite
    most = _QMAX_CEILINGS[named]
    cli._check_suite(suite, {"--n": None, "--qmax": most})
    monkeypatch.setattr(verify, "SUITES", {name: None for name in verify.SUITES})
    for given, quoted in ((str(most + 1),) * 2, ("1000",) * 2, (HUGE, "9" * 17 + "...")):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--qmax", given)
        elapsed = time.perf_counter() - started
        assert (code, out) == (2, "")
        assert err == f"spinonchars: error: suite {named} takes --qmax <= {most}, got {quoted}\n"
        assert elapsed < 0.05, elapsed


def test_verify_decomposition_runs_at_the_largest_rank(capsys):
    """`decomposition` has no rank ceiling of its own: at the `--n` ceiling its
    Yangian route sums the k=0,1 tables to q^3 in a few ms, and the suite
    passes all of its 76 cases."""
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--suite", "decomposition",
                           "--n", str(cli.CEILINGS["verify"]["--n"]), "--format", "json")
    elapsed = time.perf_counter() - started
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["cases"]) == 76
    assert all(c["pass"] for c in report["cases"])
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("n,k,qmax", [(2, 0, 9), (2, 1, 8), (3, 1, 6), (5, 0, 5),
                                      (8, 0, 10), (8, 5, 2)])
def test_weight_count_counts_the_expanded_weights(n, k, qmax):
    """`affine.weight_count` counts the weights of a table from its
    dominant vectors, and stops at the first partial count past `stop`."""
    weights = len(weight_rows(bosonic_character(n, k, qmax)))
    assert affine.weight_count(n, k, qmax, weights) == weights
    partial = affine.weight_count(n, k, qmax, weights // 2)
    assert weights // 2 < partial <= weights


@pytest.mark.parametrize("n,k,qmax", [(50, 0, 2), (200, 0, 2), (200, 0, 40000),
                                      (200, 199, 3), (2, 0, 10**7), (3, 0, int("9" * 4000))])
def test_char_refuses_a_table_past_the_ceiling_at_once(capsys, monkeypatch, n, k, qmax):
    """A table of more than the ceiling's 10^7 numbers, n + qmax at each
    weight, is refused on one line with exit 2 within 50 ms, its weights
    counted before any route runs: (50, 0, 2) has 1 384 251 weights and
    wrote 875 MB, and (200, 0, 2), 388 149 501 weights, ran out of memory."""
    for route in ("bosonic_character", "sl2_fermionic_character"):
        monkeypatch.setattr(affine, route, None)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "char", "--kind", "bosonic", "--n", str(n),
                             "--k", str(k), "--qmax", str(qmax))
    elapsed = time.perf_counter() - started
    assert (code, out) == (2, "")
    quoted = str(qmax) if qmax < 10**20 else "9" * 17 + "..."
    most = cli.CEILINGS["char"]["numbers"]
    assert err == (f"spinonchars: error: --n {n} --k {k} --qmax {quoted} gives a table of "
                   f"more than {most} numbers (n + qmax at each weight), "
                   "the most char writes\n")
    assert elapsed < 0.05, elapsed


def test_char_ceiling_admits_the_rank_200_table_of_order_one():
    """(200, 0, 1), 39 801 weights of 8 000 001 numbers, is under the
    ceiling, and so is every table of the benchmark and the golden file."""
    assert affine.weight_count(200, 0, 1, cli.CEILINGS["char"]["numbers"]) * 201 == 8_000_001
    cli._check_numbers(200, 0, 1)
    for n, k, qmax in ((8, 0, 10), (2, 0, 120), (2, 1, 120), (2, 1, 36), (4, 3, 3)):
        cli._check_numbers(n, k, qmax)


def test_cli_imports_neither_inspect_nor_dataclasses():
    """In a fresh interpreter, importing the CLI loads neither `inspect` nor
    `dataclasses` (with what `inspect` pulls in, about 12 ms of start-up),
    and `cli.verify.build_suite`, which `perfbench/child.py` reads, still
    builds every case."""
    probe = ("import sys\n"
             "from spinonchars import cli\n"
             "print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))\n"
             "print(len(cli.verify.build_suite('all', n=None, qmax=None)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.splitlines() == ["[]", "2631"]


def test_each_module_loads_only_its_own_imports():
    """The package root imports nothing, so importing one module in a fresh
    interpreter loads only it and the package modules it imports."""
    probe = ("import importlib, sys\n"
             "importlib.import_module('spinonchars.' + sys.argv[1])\n"
             "print(' '.join(sorted(m.split('.')[1] for m in sys.modules\n"
             "                      if m.startswith('spinonchars.'))))\n")
    closures = {
        "qseries": "qseries",
        "partitions": "partitions",
        "affine": "affine partitions qseries",
        "strips": "partitions strips",
        "symfunc": "affine partitions qseries symfunc",
        "yangian": "affine partitions qseries yangian",
        "verify": "affine partitions qseries verify yangian",
        "cli": "affine cli partitions qseries yangian",
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for module, loaded in closures.items():
        out = subprocess.run([sys.executable, "-c", probe, module], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == loaded, module


def test_a_command_loads_only_the_layers_it_runs():
    """In a fresh interpreter, a `char` command of every kind loads none of
    `verify`, `strips` and `symfunc`, `verify --suite spinon-cut` and
    `--suite sl2` load `verify` but neither `strips` nor `symfunc`, a
    `bijection` loads `strips`, and `cli.verify`, which
    `perfbench/child.py` reads, is imported on first read as
    `spinonchars.verify`."""
    probe = ("import contextlib, io, sys\n"
             "from spinonchars import cli\n"
             "def loaded():\n"
             "    return ' '.join(sorted(m[12:] for m in sys.modules\n"
             "                           if m.startswith('spinonchars.')))\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [cli.main(['char', '--kind', kind, '--n', '2', '--k', '1',\n"
             "                       '--qmax', '4']) for kind in cli.CHAR_KINDS]\n"
             "    codes += [cli.main(['char', '--kind', kind, '--n', '3', '--k', '0',\n"
             "                        '--qmax', '3']) for kind in ('bosonic', 'yangian')]\n"
             "    after_char = loaded()\n"
             "    codes += [cli.main(['verify', '--suite', suite])\n"
             "              for suite in ('spinon-cut', 'sl2')]\n"
             "    after_verify = loaded()\n"
             "    codes.append(cli.main(['bijection', '--from', 'motif', '--to', 'rapidity',\n"
             "                           '--n', '3', '--payload', '101010|']))\n"
             "    after_bijection = loaded()\n"
             "import spinonchars.verify\n"
             "print(codes, after_char, after_verify, after_bijection, sep='\\n')\n"
             "print(cli.verify is spinonchars.verify)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.splitlines() == [str([0] * (len(CHAR_KINDS) + 5)),
                                "affine cli partitions qseries yangian",
                                "affine cli partitions qseries verify yangian",
                                "affine cli partitions qseries strips verify yangian", "True"]


def test_cli_import_loads_neither_fractions_nor_decimal():
    """Compared with a bare interpreter, importing the CLI loads neither
    `fractions` nor the `decimal` that it pulls in (2-2.7 ms of start-up):
    `char` writes Delta_k with integers."""
    probe = ("import sys\n"
             "bare = set(sys.modules)\n"
             "import spinonchars.cli\n"
             "print(sorted({'fractions', 'decimal', '_decimal', '_pydecimal'}\n"
             "             & (set(sys.modules) - bare)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.splitlines() == ["[]"]


# The module-level functions of `qseries`, `yangian` and `affine` that no
# `char` command runs, each with the reason it stays in the modules that
# `import spinonchars.cli` loads.
_SPINON_CUT = "a spinon-cut sum: ROADMAP item 4 makes them the route of `char --kind spinon`"
NOT_RUN_BY_CHAR = {
    "affine._alternating_cut": _SPINON_CUT,
    "affine._multisum_terms": _SPINON_CUT,
    "affine._spinon_a_values": _SPINON_CUT,
    "affine.scaled_weight_norm": _SPINON_CUT,
    "affine.spinon_string_function": _SPINON_CUT,
    "affine.verify_spinon_cut": _SPINON_CUT,
    "affine.conformal_dimension": "Delta_k as a `Fraction`, kept beside the tables it "
                                  "grades; `char` writes it with integers, so that no "
                                  "`fractions` loads",
}


def test_every_start_path_function_runs_in_some_char_command():
    """The modules that `import spinonchars.cli` loads hold only code that
    some `char` command runs.  In a fresh interpreter, with every memo cold,
    every kind of `char` in every format, and one table refused at the
    ceiling (which counts its weights), run under `sys.setprofile`; every
    module-level function of `qseries`, `yangian` and `affine` is called,
    or is named in `NOT_RUN_BY_CHAR`, and every function named there is
    not called."""
    argvs = [["char", "--kind", kind, "--n", "2", "--k", "1", "--qmax", "4",
              "--format", fmt] for kind in CHAR_KINDS for fmt in ("json", "csv", "pretty")]
    argvs += [["char", "--kind", kind, "--n", "4", "--k", "1", "--qmax", "3"]
              for kind in ("bosonic", "yangian")]
    argvs.append(["char", "--kind", "bosonic", "--n", "50", "--k", "0", "--qmax", "2"])
    probe = ("import contextlib, io, json, sys\n"
             "from spinonchars import affine, cli, qseries, yangian\n"
             "ran = set()\n"
             "def called(frame, event, arg):\n"
             "    if event == 'call':\n"
             "        ran.add(frame.f_code)\n"
             "out, err = io.StringIO(), io.StringIO()\n"
             "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
             "    sys.setprofile(called)\n"
             "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
             "    sys.setprofile(None)\n"
             "print(codes)\n"
             "for module in (qseries, yangian, affine):\n"
             "    for name, obj in vars(module).items():\n"
             "        func = getattr(obj, '__wrapped__', obj)\n"
             "        if (getattr(func, '__module__', None) == module.__name__\n"
             "                and func.__code__ not in ran):\n"
             "            print(module.__name__[12:] + '.' + name)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout.splitlines()
    assert out[0] == str([0] * (len(argvs) - 1) + [2])
    assert sorted(out[1:]) == sorted(NOT_RUN_BY_CHAR)


def test_suite_choices_are_the_verify_suites():
    """`COMMANDS` spells the `--suite` choices out, so that `cli` need not
    import `verify`; they are the suites of `verify.SUITES` and "all"."""
    assert COMMANDS["verify"][1]["--suite"] == (*sorted(verify.SUITES), "all")


def test_char_loads_no_argument_parser():
    """In a fresh interpreter, `cli.main` runs a `char --kind yangian`
    command without loading `argparse`, or the `gettext` and `locale` that
    `argparse` pulls in: building its parser took about 3 ms of a 5 ms
    command."""
    probe = ("import sys\n"
             "from spinonchars import cli\n"
             "code = cli.main(['char', '--kind', 'yangian', '--n', '3', '--k', '0',\n"
             "                 '--qmax', '2'])\n"
             "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.splitlines()[-1] == "0 []"


def test_a_command_starts_with_the_heap_frozen(capsys, monkeypatch):
    """`main` freezes the objects that exist when it starts, so a command
    starts at the same allocation count of the collector whatever the
    imports allocated, and runs with the collector off; the collector's
    state before the command is restored after it, on success and on a
    usage error."""
    seen = []
    parse = cli._parse
    monkeypatch.setattr(cli, "_parse", lambda argv: seen.append(
        (gc.get_count()[0], gc.isenabled(), gc.get_freeze_count())) or parse(argv))
    assert gc.isenabled()
    code, _, _ = run_cli(capsys, "char", "--kind", "yangian", "--n", "2", "--k", "0",
                         "--qmax", "1")
    assert code == 0
    assert seen[0][0] < 5 and not seen[0][1] and seen[0][2] > 0
    assert gc.isenabled()
    assert run_cli(capsys, "char", "--kind", "yangian", "--n", "1")[0] == 2
    assert gc.isenabled()
    gc.disable()
    try:
        assert run_cli(capsys, *_CHAR)[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


class _Node:
    """A weakly referable object, to make a reference cycle of."""


def test_a_command_leaves_the_callers_garbage_collectable(capsys):
    """A reference cycle the caller dropped but did not collect before an
    in-process command is still collected after it: `main` unfreezes what
    it froze.  A heap the caller froze itself stays frozen."""
    gc.collect()
    node = _Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    assert run_cli(capsys, *_CHAR)[0] == 0
    assert gc.get_freeze_count() == 0
    gc.collect()
    assert ref() is None
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert run_cli(capsys, *_CHAR)[0] == 0
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("argv", [
    *(("char", "--kind", kind, "--n", "2", "--k", "1", "--qmax", "12", "--format", fmt)
      for kind in CHAR_KINDS for fmt in ("json", "csv", "pretty")),
    ("char", "--kind", "bosonic", "--n", "8", "--k", "0", "--qmax", "4", "--format", "json"),
    ("char", "--kind", "yangian", "--n", "4", "--k", "2", "--qmax", "4", "--format", "csv"),
    ("verify", "--suite", "all", "--format", "json"),
    ("verify", "--suite", "spinon-cut", "--qmax", "8"),
    *(("bijection", "--from", src, "--to", dst, "--n", "3", "--payload", payload)
      for src, payload in (("strip", "[2, 3, 1]"), ("motif", "101010|"),
                           ("rapidity", '{"k": 0, "prefix": [1, 3], "stab": 4}'),
                           ("modes", "[0, 1, 1, 1, 2]"))
      for dst in ("strip", "motif", "rapidity")),
    ("bijection", "--from", "sl2-partition", "--to", "motif", "--n", "2",
     "--payload", '{"lam": [2, 1], "N": 3}'),
])
def test_a_command_leaves_no_cyclic_garbage(capsys, argv):
    """Every command kind frees what it allocates by reference counting
    alone, which is why `main` may run it with the collector off: with the
    collector off throughout, a collection after the command finds no
    unreachable object."""
    gc.collect()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert gc.collect() == 0


_PAST_RANK = "spinonchars: error: --n must be <= {}, got {}\n"


@pytest.mark.parametrize("argv,given", [
    (("char", "--kind", "bosonic", "--n", "2000", "--k", "0", "--qmax", "1"), "2000"),
    (("char", "--kind", "yangian", "--n", "2000", "--k", "0", "--qmax", "1"), "2000"),
    (("char", "--kind", "spinon-enum", "--n", "201", "--k", "0", "--qmax", "1"), "201"),
    (("bijection", "--from", "strip", "--to", "motif", "--n", "1000000", "--payload", "[1]"),
     "1000000"),
    (("bijection", "--from", "motif", "--to", "strip", "--n", "1000000", "--payload", "1|"),
     "1000000"),
    (("verify", "--suite", "gz", "--n", "201"), "201"),
    (("char", "--kind", "bosonic", "--n", "9" * 4000, "--k", "0", "--qmax", "1"),
     "9" * 17 + "..."),
])
def test_a_rank_past_the_ceiling_is_refused_at_once(capsys, argv, given):
    """A `--n` above the ceiling of its command is refused on one short
    line within 50 ms: past it, the bosonic route ran out of stack (rank
    2000 died of a `RecursionError`, exit 1), the Yangian route ran for
    more than 20 s at rank 2000 and order 1, and a bijection took 0.35 s at
    rank 10^6."""
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - started
    assert (code, out) == (2, "")
    assert err == _PAST_RANK.format(cli.CEILINGS[argv[0]]["--n"], given)
    assert len(err) <= 200 and elapsed < 0.05, elapsed


# an integer option of 4000 digits, within what `int` converts
HUGE = "9" * 4000


@pytest.mark.parametrize("argv,message", [
    (("char", "--kind", "bosonic", "--n", "-" + HUGE, "--k", "0", "--qmax", "1"),
     f"--n must be >= 2, got -{'9' * 16}..."),
    (("char", "--kind", "bosonic", "--n", "3", "--k", HUGE, "--qmax", "1"),
     f"--k must satisfy 0 <= k < n, got k={'9' * 17}..., n=3"),
    (("char", "--kind", "bosonic", "--n", "3", "--k", "0", "--qmax", "-" + HUGE),
     f"--qmax must be >= 0, got -{'9' * 16}..."),
    (("verify", "--suite", "sl2", "--qmax", "-" + HUGE),
     f"--qmax must be >= 0, got -{'9' * 16}..."),
    (("verify", "--suite", "sl2", "--jobs", HUGE),
     f"--jobs must be 1, got {'9' * 17}...: cases run in one process"),
])
def test_an_out_of_range_integer_is_quoted_short(capsys, argv, message):
    """An integer option out of its range is refused on one line that quotes
    at most 20 characters of it, as the `--n` ceiling does: quoted whole,
    4000 digits made a 4 kB error line."""
    assert run_cli(capsys, *argv) == (2, "", f"spinonchars: error: {message}\n")


def test_a_rank_at_the_ceiling_is_answered(capsys):
    """Each command runs at its `--n` ceiling, the bosonic route's
    recursion among them, even from inside this test runner's stack."""
    most = cli.CEILINGS["char"]["--n"]
    assert cli.CEILINGS["bijection"]["--n"] == most
    rank = str(most)
    for kind in ("bosonic", "yangian"):
        code, out, _ = run_cli(capsys, "char", "--kind", kind, "--n", rank, "--k", "0",
                               "--qmax", "0", "--format", "csv")
        assert (code, out.count("\n")) == (0, 2), kind
    code, out, _ = run_cli(capsys, "bijection", "--from", "strip", "--to", "motif",
                           "--n", rank, "--payload", "[1]")
    assert (code, json.loads(out)["energy"]) == (0, "199/400")
    assert run_cli(capsys, "char", "--kind", "bosonic", "--n", str(most + 1),
                   "--k", "0", "--qmax", "0")[0] == 2


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


_CHAR = ("char", "--kind", "yangian", "--n", "3", "--k", "1", "--qmax", "2")
_VERIFY = ("verify", "--suite", "sl2")
_BIJECTION = ("bijection", "--from", "motif", "--to", "strip", "--n", "2", "--payload", "10|")

# (a malformed command line, what its one error line must name)
MALFORMED = (
    ((), "command"),
    (("spinon",), "'spinon'"),
    (("--kind", "yangian"), "'--kind'"),
    ((*_CHAR, "--bogus", "1"), "'--bogus'"),
    ((*_CHAR, "--form", "csv"), "'--form'"),
    ((*_BIJECTION[:-2], "--pay", "10|"), "'--pay'"),
    ((*_CHAR, "extra"), "'extra'"),
    ((*_CHAR, "-n", "3"), "'-n'"),
    ((*_CHAR, "--format"), "--format"),
    (("char", "--kind", "--n", "3", "--k", "1", "--qmax", "2"), "--kind"),
    ((*_VERIFY, "--qmax", "--n", "2"), "--qmax"),
    *((argv[:i] + argv[i + 2:], argv[i])
      for argv in (_CHAR, _VERIFY, _BIJECTION) for i in range(1, len(argv), 2)),
    ((*_CHAR, "--n", "\u0663"), "--n"),
    ((*_CHAR, "--qmax", "1_0"), "--qmax"),
    ((*_CHAR, "--k", " 2"), "--k"),
    ((*_BIJECTION, "--n", "2.0"), "--n"),
    ((*_VERIFY, "--qmax", ""), "--qmax"),
    ((*_VERIFY, "--jobs", "-"), "--jobs"),
    ((*_CHAR, "--kind", "affine"), "--kind"),
    ((*_CHAR, "--format", "JSON"), "--format"),
    ((*_VERIFY, "--format", "csv"), "--format"),
    ((*_VERIFY[:-1], "al"), "--suite"),
    ((*_BIJECTION, "--from", "partition"), "--from"),
    ((*_BIJECTION, "--to", "modes"), "--to"),
)


@pytest.mark.parametrize("argv,named", [
    *MALFORMED,
    # more digits than `int` converts
    ((*_VERIFY, "--jobs", "1" * 5000), "--jobs"),
])
def test_malformed_command_line_is_one_usage_error(capsys, argv, named):
    """No command, an unknown command, option or token, an option spelled
    short, an option without its value, a missing required option, an
    integer that is not an optional sign and ASCII digits, and a value
    outside an option's choices: each exits 2 with one error line that
    names what is wrong, and prints nothing on stdout."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("spinonchars: error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("argv,same", [
    ((*_CHAR, "--format", "csv"),
     ("char", "--kind=yangian", "--n=3", "--k=1", "--qmax=2", "--format=csv")),
    ((*_CHAR, "--format", "csv"),
     ("char", "--kind", "bosonic", "--n", "4", "--k", "0", "--qmax", "9", "--format",
      "json", *_CHAR[1:], "--format", "csv")),
    ((*_CHAR, "--format", "json"), (*_CHAR[:4], "+3", *_CHAR[5:], "--format", "json")),
    ((*_CHAR, "--qmax", "-1"), (*_CHAR, "--qmax=-1")),
    (_BIJECTION, ("bijection", "--from=motif", "--to=strip", "--n=2", "--payload=10|")),
    ((*_BIJECTION, "--payload", "1=0"), (*_BIJECTION, "--payload=1=0")),
])
def test_option_spellings_print_the_same_bytes(capsys, argv, same):
    """`--opt=value` reads as `--opt value` (up to its first "="), a repeated
    option keeps its last value, and an integer may carry a sign."""
    assert run_cli(capsys, *same) == run_cli(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("-h",), ("--help",), *((command, "-h") for command in COMMANDS),
    (*_CHAR, "--help"), ("verify", "--suite", "schur", "-h"),
])
def test_help_lists_every_option_and_choice(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if len(argv) == 1:
        assert all(name in out and summary in out
                   for name, (summary, _, _) in COMMANDS.items())
        return
    summary, options, _ = COMMANDS[argv[0]]
    assert summary in out
    for opt, kind in options.items():
        assert f" {opt} " in out
        assert all(choice in out for choice in (kind if isinstance(kind, tuple) else ()))


@pytest.mark.parametrize("command", COMMANDS)
def test_help_prints_each_ceiling_of_its_command(capsys, command):
    """`spinonchars COMMAND -h` prints every entry of `cli.CEILINGS[COMMAND]`,
    the one table of ceilings on outside input, on a line of its own."""
    assert sorted(cli.CEILINGS) == sorted(COMMANDS)
    code, out, _ = run_cli(capsys, command, "-h")
    assert code == 0
    lines = [line.split() for line in out.splitlines()]
    for what, most in cli.CEILINGS[command].items():
        assert [*what.split(), str(most)] in lines, what
