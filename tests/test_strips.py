"""Border strips, rapidity sequences, motifs, and the bijections between them."""
import hashlib
import json
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinonchars.partitions import conjugate, padded, partitions_of
from spinonchars.strips import (
    discover_rapidity_convention,
    energy,
    enumerate_border_strips,
    from_rows,
    is_reduced,
    members_upto,
    modes_to_strip,
    motif,
    motif_to_strip,
    rapidity,
    rapidity_to_strip,
    reduce,
    shape,
    sl2_partition_to_strip,
    strip,
    strip_to_rapidity,
    to_record,
    transpose,
)
from oracles import reduced_strips


# ---------------------------------------------------------------------------
# shapes and validation

def test_strip_rows_and_cols_example():
    """Column heights [2,1] right-to-left are the ribbon (2,2)/(1), with row
    lengths <1,2>."""
    cols = strip((2, 1), 3)
    assert transpose(cols) == (1, 2)
    assert cols == (2, 1)
    assert shape(cols) == ((2, 2), (1,))


def _compositions(total, cap):
    if total == 0:
        yield ()
        return
    for b in range(1, min(cap, total) + 1):
        for rest in _compositions(total - b, cap):
            yield (b,) + rest


def test_shape_is_a_canonical_ribbon_with_the_strip_rows_and_cols():
    """Oracle for the composition representation: for every composition with
    parts <= n and size <= 10, n = 2..6, `shape` is connected, has no 2x2
    block, sits in canonical position (bottom-left box in column 1), and its
    row lengths and column heights, read off outer/inner through
    `conjugate`, are the strip's rows and cols."""
    for n in range(2, 7):
        for size in range(11):
            for cols in _compositions(size, n):
                outer, inner = shape(strip(cols, n))
                r = len(outer)
                inner = padded(inner, r)
                rows = tuple(a - b for a, b in zip(outer, inner))
                assert all(a > 0 for a in rows), cols
                for i in range(r - 1):
                    # rows i and i+1 share exactly one column: they touch,
                    # and no 2x2 block forms
                    assert outer[i + 1] - inner[i] == 1, cols
                assert r == 0 or inner[-1] == 0, cols
                oc = conjugate(outer)
                ic = padded(conjugate(inner), len(oc))
                heights = tuple(a - b for a, b in zip(oc, ic))[::-1]
                assert rows == transpose(cols), cols
                assert heights == cols, cols
                assert from_rows(rows, n) == cols, cols


def test_column_height_capped_by_rank():
    strip((3,), 3)  # height 3 allowed at rank 3
    with pytest.raises(ValueError, match="height"):
        strip((3,), 2)
    with pytest.raises(ValueError, match="height"):
        strip((1, 0), 2)


def test_from_rows_round_trip():
    for rows in ([3], [1, 2], [2, 2], [1, 1, 4]):
        cols = from_rows(rows, 5)
        assert list(transpose(cols)) == rows
        assert strip(cols, 5) == cols


def test_labels_refuse_non_integer_entries():
    """Strips and rapidity sequences raise TypeError for a float or bool
    entry instead of truncating it; a motif text is read character by
    character."""
    cases = (
        lambda: from_rows([1.5, 2], 3),
        lambda: from_rows([True, 2], 3),
        lambda: strip((1.5,), 3),
        lambda: strip((2, True), 3),
        lambda: rapidity(2, 0, [1.9], 2),
        lambda: rapidity(2, 0, [True], 2),
    )
    for make in cases:
        with pytest.raises(TypeError, match="must be ints"):
            make()
    assert motif("0|", 2) == "0|"


def test_enumeration_count_rank3_size3():
    """Three reduced rank-3 strips of size 3: <3>, <1,2>, <2,1>."""
    found = enumerate_border_strips(3, 3, reduced=True)
    assert sorted(transpose(cols) for cols in found) == [(1, 2), (2, 1), (3,)]
    # the full column (1,1,1) is the one non-reduced extra
    assert len(enumerate_border_strips(3, 3, reduced=False)) == 4


def test_enumeration_rank2_counts_are_fibonacci():
    # compositions of m into parts 1..2
    fib = [1, 1]
    for m in range(2, 9):
        fib.append(fib[-1] + fib[-2])
    for m in range(1, 9):
        assert len(enumerate_border_strips(2, m, reduced=False)) == fib[m]


# ---------------------------------------------------------------------------
# energy

def test_energy_anchor_values():
    assert energy(from_rows([1], 2), 2) == Fraction(1, 4)
    assert energy(from_rows([2], 2), 2) == 1
    assert energy(from_rows([2, 2], 2), 2) == 2
    assert energy(from_rows([1, 2], 2), 2) == Fraction(5, 4)


def test_energy_row_and_column_forms_agree():
    for n in (2, 3, 4):
        for size in range(9):
            for cols in enumerate_border_strips(n, size, reduced=True):
                energy(cols, n)  # both forms computed and asserted equal inside


def test_energy_increment_identity():
    """Appending a column of height b on the right of a reduced strip with s
    columns and m boxes raises 2n*E by b(2(ns-m)+n-b), which is >= n+1."""
    for n in (2, 3, 4, 5):
        for size in range(1, 9):
            for cols in enumerate_border_strips(n, size, reduced=True):
                s, m = len(cols), sum(cols)
                for b in range(1, n + 1):
                    grown = strip((b,) + cols, n)
                    step = 2 * n * (energy(grown, n) - energy(cols, n))
                    assert step == b * (2 * (n * s - m) + n - b), (cols, b)
                    assert step >= n + 1, (cols, b)


@pytest.mark.parametrize("n,qmax", [(2, 6), (3, 2), (4, 1), (5, 1)])
def test_reduced_strips_is_exact(n, qmax):
    """The pruned search yields exactly the class-k reduced strips with
    E <= Delta_k + qmax.  Every column after the first raises 2n*E by at
    least n+1, so a brute-force census up to that many columns is complete."""
    for k in range(n):
        e2_max = k * (n - k) + 2 * n * qmax
        max_size = (n - 1) + n * (e2_max // (n + 1))
        bound = Fraction(e2_max, 2 * n)
        expected = {
            cols
            for size in range(k, max_size + 1, n)
            for cols in enumerate_border_strips(n, size, reduced=True)
            if energy(cols, n) <= bound
        }
        found = list(reduced_strips(n, k, e2_max))
        assert len(found) == len({cols for cols, _ in found})
        assert {cols for cols, _ in found} == expected, (n, k)
        assert all(e2 == 2 * n * energy(cols, n) for cols, e2 in found)


# ---------------------------------------------------------------------------
# rapidities and motifs

def test_vacuum_rapidity_maps_to_minimal_strip():
    """The class-k vacuum is the text "1" * (k - 1) + "0|" for k >= 1 (its
    bits up to the first length of class k) and "|" for k = 0, not
    "1" * k + "|"; it is the strip of k boxes in one column."""
    for n in (2, 3, 4, 5):
        for k in range(n):
            vacuum = rapidity(n, k, (), 0)
            assert vacuum == ("1" * (k - 1) + "0|" if k else "|"), (n, k)
            assert rapidity_to_strip(vacuum, n) == motif_to_strip(vacuum, n) == (
                (k,) if k else ()), (n, k)
    assert transpose(rapidity_to_strip(rapidity(3, 2, (), 0), 3)) == (1, 1)


def test_rapidity_class_must_be_in_range():
    """The class k of a rapidity sequence is one of 0..n-1; any other k is
    refused rather than reduced mod n."""
    for k in (-1, 2, 5):
        with pytest.raises(ValueError, match="0 <= k < n"):
            rapidity(2, k, [], 0)
    assert to_record(rapidity(2, 1, [], 0), 2)["k"] == 1


# (n, k, prefix, stab), and the error and message `rapidity` refuses them
# with.  The first eight break one check each, in the order they are made;
# the last seven break a check and every later one but the run check, so the
# first check made decides.
RAPIDITY_REFUSALS = [
    ((1, 0, [], 0), ValueError, "rank must be >= 2"),
    ((2, 0, [1, 2.0], 2), TypeError, "rapidities must be ints, got 2.0"),
    ((2, 0, [3, 2], 3), ValueError, "prefix must be strictly increasing: (3, 2)"),
    ((2, 0, [0, 1], 2), ValueError, "rapidities must be positive"),
    ((2, 0, [1, 3], 2), ValueError, "prefix entries must not exceed the stabilization index"),
    ((2, 0, [], -1), ValueError, "stabilization index must be >= 0"),
    ((3, 3, [], 0), ValueError, "class k must satisfy 0 <= k < n, got k=3, n=3"),
    ((3, 0, [1, 2, 3], 3), ValueError, "3 consecutive rapidities ending at 3"),
    ((1, 9, [2.0], -1), ValueError, "rank must be >= 2"),
    ((2, 9, [3, 2.0], -1), TypeError, "rapidities must be ints, got 2.0"),
    ((2, 9, [0, -1], -1), ValueError, "prefix must be strictly increasing: (0, -1)"),
    ((2, 9, [0, 5], -1), ValueError, "rapidities must be positive"),
    ((2, 9, [1, 3], -1), ValueError, "prefix entries must not exceed the stabilization index"),
    ((2, 9, [], -1), ValueError, "stabilization index must be >= 0"),
    ((3, 3, [1, 2, 3], 3), ValueError, "class k must satisfy 0 <= k < n, got k=3, n=3"),
]


@pytest.mark.parametrize("args,error,message", RAPIDITY_REFUSALS)
def test_rapidity_refuses_with_its_message(args, error, message):
    with pytest.raises(error) as caught:
        rapidity(*args)
    assert str(caught.value) == message


def test_no_n_consecutive_rapidities():
    """A run of n members is refused, also one that the stabilized tail
    completes: 3, 4, 5 in the rank-3 sequence, and positions 1-3 or 2-4 of
    the rank-3 motifs "11|" and "01|"."""
    for make in (lambda: rapidity(2, 0, [1, 2], 2),
                 lambda: rapidity(3, 0, [3], 3),
                 lambda: motif("11|", 3),
                 lambda: motif("01|", 3)):
        with pytest.raises(ValueError, match="consecutive rapidities"):
            make()
    assert members_upto(rapidity(3, 0, [2], 3), 3, 6) == [2, 4, 5]
    assert members_upto(motif("10|", 3), 3, 6) == [1, 3, 4, 6]


def test_strip_rapidity_round_trip_census():
    for n in (2, 3):
        for size in range(8):
            for cols in enumerate_border_strips(n, size, reduced=True):
                text = strip_to_rapidity(cols, n)
                assert rapidity_to_strip(text, n) == cols, (n, cols)


def test_rapidity_motif_round_trip_census():
    """The text of a strip's sequence is its own motif, and the record it
    prints as builds it again."""
    for n in (2, 3):
        for size in range(8):
            for cols in enumerate_border_strips(n, size, reduced=True):
                text = strip_to_rapidity(cols, n)
                assert motif(text, n) == text, (n, cols)
                assert rapidity(**to_record(text, n)) == text, (n, cols)


def test_motif_square_construction_matches_rapidity_route():
    for n in (2, 3):
        for size in range(8):
            for cols in enumerate_border_strips(n, size, reduced=True):
                assert motif_to_strip(strip_to_rapidity(cols, n), n) == cols, (n, cols)


def test_motif_examples_pinned():
    assert sum(motif_to_strip("|", 2)) == 0
    assert sum(motif_to_strip("10|", 2)) == 0
    assert transpose(motif_to_strip("0|", 2)) == (1,)
    # a trailing tail block: "10|" and "|" are one sequence, written as "|"
    assert motif("10|", 2) == motif("|", 2) == rapidity(2, 0, (), 0) == "|"
    assert rapidity(3, 0, [2], 3) == "010|"
    # the vacuum of class 0 holds 2 and not 3, so only position 1 breaks it
    assert to_record("010|", 3) == {"n": 3, "k": 0, "prefix": [], "stab": 1}


def test_motif_class_is_bit_count_mod_rank():
    assert to_record(motif("10|", 3), 3)["k"] == 2
    assert to_record(motif("010|", 3), 3)["k"] == 0


def test_every_short_motif_text():
    """Every 0/1 text of at most 10 bits at n = 2..4, (1^{n-1}, 0) blocks at
    its end included, which no census of reduced strips reaches.  A text is
    refused, also by the square construction, exactly when its bits and two
    tail blocks hold n consecutive 1s.
    An accepted one gives the text with its trailing tail blocks removed,
    whose cut gives the strip of the square construction, and whose record
    builds it again."""
    for n in (2, 3, 4):
        block = "1" * (n - 1) + "0"
        for size in range(11):
            for bits in map("".join, product("01", repeat=size)):
                text = bits + "|"
                if "1" * n in bits + block * 2:
                    for read in (motif, motif_to_strip):
                        with pytest.raises(ValueError, match="consecutive rapidities"):
                            read(text, n)
                    continue
                shortest = motif(text, n)
                assert shortest == re.sub(f"({block})*$", "", bits) + "|"
                assert motif_to_strip(text, n) == rapidity_to_strip(shortest, n), (n, text)
                assert rapidity(**to_record(shortest, n)) == shortest, (n, text)


# ---------------------------------------------------------------------------
# mode sequences and sl2 partitions

def test_modes_examples():
    assert sum(modes_to_strip([0, 0, 1], 3)) == 3
    assert transpose(modes_to_strip([0, 1, 2], 3)) == (3,)


def test_modes_gap_rejected():
    with pytest.raises(ValueError, match="gap"):
        modes_to_strip([0, 2], 3)


def test_modes_postconditions_census():
    def admissible(n, max_modes, max_value):
        def rec(prefix, last, run):
            if prefix:
                yield list(prefix)
            if len(prefix) == max_modes:
                return
            for v in range(last, max_value + 1):
                if v > (max(prefix) + 1 if prefix else 0):
                    break
                new_run = run + 1 if prefix and v == last else 1
                if new_run <= n:
                    yield from rec(prefix + [v], v, new_run)

        yield from rec([], 0, 0)

    for n in (2, 3):
        for modes in admissible(n, 6, 4):
            cols = modes_to_strip(modes, n)  # postconditions asserted inside
            assert sum(cols) == len(modes)


def test_sl2_partition_strip_examples():
    assert transpose(sl2_partition_to_strip([], 3)) == (3,)
    cols = sl2_partition_to_strip((2, 1), 3)
    assert transpose(cols) == (2, 3, 2)
    assert energy(cols, 2) == Fraction(3 * 3, 4) + 3


def test_sl2_partition_strip_census_identities():
    for n_spinons in range(7):
        for size in range(7):
            for lam in partitions_of(size, max_len=n_spinons):
                sl2_partition_to_strip(lam, n_spinons)  # identities asserted


# ---------------------------------------------------------------------------
# rapidity energy harness

def test_convention_harness_report_is_pinned():
    """The harness report on the reduced strips of size <= 6 at ranks 2-3,
    whole: neither convention matches the strip energy, each on 10 strips
    of 65.  A wrong vacuum, such as the text "1" * k + "|" for class k,
    moves these counts."""
    report = discover_rapidity_convention(6, (2, 3))
    assert {name: (data["matches"], data["mismatch_count"])
            for name, data in report["conventions"].items()} == {
        "literal": (10, 55), "tail": (10, 55)}
    assert report["conclusion"] == ("no single alignment convention reproduces the "
                                    "strip energy; see the mismatch records")
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == (
        "3de64f6be290e7ca7b33454373756e2fc54c88949e9fe5742e0f5ef28fbc6d19")


def test_convention_harness_report_shape():
    report = discover_rapidity_convention(max_size=5, ranks=(2, 3))
    assert set(report) >= {"census", "conventions", "conclusion"}
    for name in ("literal", "tail"):
        data = report["conventions"][name]
        assert data["mismatch_count"] == len(data["mismatches"])
        for rec in data["mismatches"]:
            assert {"strip", "expected"} <= set(rec)
            assert "got" in rec or "error" in rec


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.integers(1, 5), min_size=0, max_size=4),
)
def test_random_row_lists_reduce_to_reduced_strips(n, rows):
    try:
        cols = from_rows(rows, n)
    except ValueError:
        return  # some column grew beyond the rank: correctly rejected
    reduced = reduce(cols, n)
    assert is_reduced(reduced, n)
    assert sum(reduced) % n == sum(cols) % n


@st.composite
def _column_runs(draw, max_size=30):
    """(n, column heights) with n <= 6, heights in 1..n and total <= max_size."""
    n = draw(st.integers(2, 6))
    heights = []
    for b in draw(st.lists(st.integers(1, n), max_size=max_size)):
        if sum(heights) + b > max_size:
            break
        heights.append(b)
    return n, heights


@settings(max_examples=60, deadline=None)
@given(_column_runs())
def test_strip_rapidity_and_motif_round_trips(case):
    """Reduced strips with n <= 6 and size <= 30 survive strip -> rapidity ->
    strip and strip -> motif -> strip.  The same sequence built with a
    padded stabilization index, or read from a motif with extra vacuum
    blocks, is the same text, with the same canonical record."""
    n, cols = case
    cols = reduce(strip(cols, n), n)
    energy(cols, n)  # row and column forms asserted equal inside
    text = strip_to_rapidity(cols, n)
    assert rapidity_to_strip(text, n) == cols
    assert motif_to_strip(text, n) == cols
    record = to_record(text, n)
    for pad in (0, 1, n, 2 * n + 1):
        stab = record["stab"] + pad
        tail = [x for x in range(record["stab"] + 1, stab + 1) if x % n != record["k"]]
        assert rapidity(n, record["k"], record["prefix"] + tail, stab) == text
    for extra in (1, 2):
        padded = text[:-1] + ("1" * (n - 1) + "0") * extra + "|"
        assert motif(padded, n) == text
        assert to_record(padded, n) == record
        assert motif_to_strip(padded, n) == cols


@settings(max_examples=60, deadline=None)
@given(_column_runs())
def test_modes_to_strip_reads_runs_as_columns(case):
    """Mode v fills the (v+1)-th column from the left, so the shape's column
    heights, left to right, are the run lengths of the modes."""
    n, runs = case
    if not runs:
        return
    modes = [v for v, run in enumerate(runs) for _ in range(run)]
    cols = modes_to_strip(modes, n)  # postcondition asserted inside
    assert sum(cols) == len(modes)
    outer, inner = shape(cols)
    oc = conjugate(outer)
    ic = padded(conjugate(inner), len(oc))
    assert [a - b for a, b in zip(oc, ic)] == runs
