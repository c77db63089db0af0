"""Black-box CLI tests: exit codes, output determinism, and payload handling."""
import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinonchars import strips, verify
from spinonchars.affine import CharacterTable, bosonic_character
from spinonchars.cli import (CHAR_KINDS, _build_table, _json_text, _laid_out, _render_report,
                             _write_table, main)
from tables import hand_built


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
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
                    assert out == json.dumps(table.to_json_dict(), indent=2) + "\n"
                    rows = [(tuple(r["weight"]), r["coeffs"]) for r in data["rows"]]
                    assert rows == [(w, list(row)) for w, row in table.items()], argv


def test_char_builders_return_no_zero_row():
    """`char` writes the rows of `table.items()` as built, so every builder
    drops its all-zero rows itself."""
    for kind in CHAR_KINDS:
        n_values = (2, 3, 4) if kind in ("bosonic", "yangian") else (2,)
        for n in n_values:
            for k in range(n):
                for qmax in range(7):
                    table = _build_table(kind, n, k, qmax)
                    pairs = table.items()
                    assert pairs, (kind, n, k, qmax)
                    zero = [w for w, row in pairs if not any(row)]
                    assert not zero, (kind, n, k, qmax, zero)


def test_empty_table_renders_in_every_format():
    table = CharacterTable(3, 1, 2)
    rendered = {}
    for fmt in ("json", "csv", "pretty"):
        out = io.StringIO()
        _write_table(table, fmt, out)
        rendered[fmt] = out.getvalue()
    assert rendered["json"] == json.dumps(table.to_json_dict(), indent=2) + "\n"
    assert '"rows": []' in rendered["json"]
    assert rendered["csv"] == "w1,w2,qdegree,coeff\n"
    assert rendered["pretty"] == "n=3 k=1 qmax=2 delta=1/3\n"


@pytest.mark.parametrize("table", [
    hand_built(4, 1, 3, [((1, 0, 0), (1, 12, 345, 6789)),
                         ((-3, 10, -12), (-5, 0, -170, 1)),
                         ((0, -1, 1), (1, 12, 345, 6789)),
                         ((-20, 0, 7), (0, 0, 0, 100000000000000000000))]),
    hand_built(2, 0, 4, [((w,), (w, -w, 10 * w, 0, -1)) for w in range(-12, 13, 3)]),
    hand_built(3, 2, 0, [((-1, -1), (7,)), ((2, 0), (-30,)), ((5, -4), (7,))]),
    hand_built(2, 1, 0, [((-101,), (-2,))]),
    hand_built(1, 0, 2, [((), (3, -1, 22))]),
], ids=["multi-digit", "rank-2", "rank-3-qmax-0", "rank-2-qmax-0", "rank-1"])
def test_json_table_layout_of_hand_built_tables(table):
    """Tables no builder writes, with multi-digit and negative coefficients
    and weights, a single weight coordinate, qmax = 0 and no weight
    coordinate at all, are laid out as the indenting encoder lays them out."""
    out = io.StringIO()
    _write_table(table, "json", out)
    assert out.getvalue() == json.dumps(table.to_json_dict(), indent=2) + "\n"


def test_writer_lays_out_each_row_object_once():
    """The 2 691 weights of (6, 0, 8) share at most qmax + 1 row objects, and
    the writer lays out the text of each of them once, in weight order."""
    table = bosonic_character(6, 0, 8)
    laid_out = []
    pairs = list(_laid_out(table, lambda row: laid_out.append(row) or len(laid_out)))
    assert [w for w, _ in pairs] == [w for w, _ in table.items()]
    assert len(pairs) == 2691 and len(laid_out) <= 8 + 1
    assert all(laid_out[text - 1] == row for (_, text), (_, row) in zip(pairs, table.items()))


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
    string or a bool), and a motif bit that is not the ASCII digit 0 or 1
    (such as the fullwidth digits of "１０|"), is refused rather than
    truncated or read as a digit."""
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
    without running that encoder: for a passing suite, and for a report
    whose failing cases carry a dict, a string and a list as their loci."""
    passing = verify.run_cases("gz", verify.build_suite("gz", n=2))
    assert passing.passed
    failing = verify.run_cases("made-up", [
        verify.Case("a[1]", {"n": 2, "rows": [3, 1], "variant": "x\ty"},
                    lambda: {"weight": [1, -1], "q_degree": 0, "lhs": 2, "rhs": None}),
        verify.Case("b", {}, lambda: "exception: \u00e9 \"quoted\"\n"),
        verify.Case("c", {"lam": []}, lambda: [[], {}, 1.5, True, False]),
        verify.Case("d", {"n": 3}, lambda: None),
    ])
    assert not failing.passed
    for report in (passing, failing):
        assert _render_report(report, "json") == json.dumps(report.to_json_dict(), indent=2)


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers() | st.booleans() | st.none(), inner,
                                     max_size=3)),
    max_leaves=20,
))
def test_json_text_matches_the_indenting_encoder(value):
    """Any JSON value, non-str keys, tuples and non-finite floats included."""
    assert _json_text(value) == json.dumps(value, indent=2)


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
    result = verify.run_cases("bijections", cases).cases[0]
    assert not result.passed
    assert "tail" in result.locus and "expected" not in result.locus


def test_verify_bad_rank_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "sl2", "--n", "1")
    assert code == 2
    assert "--n" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
