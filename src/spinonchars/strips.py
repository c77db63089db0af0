"""Border strips, rapidity sequences, motifs, and the bijections among them.

A border strip (ribbon) is the int tuple of its column heights.  Walk the
strip from its top-right box by unit steps left or down: the columns
b_1..b_s are the runs of the walk between left steps, read right to left
(b_1 = rightmost column), and the rows a_1..a_r are its runs between down
steps, read top to bottom.  Each composition determines the other
(`transpose`), so the rows are not stored, and no skew shape is: `shape`
draws one on demand in canonical position (bottom-left box in column 1),
each lower row extending left with exactly one column of overlap.  As with a
partition, the rank n is not part of the value: a rank-n strip has every
column in 1..n, and each function that reads the rank takes it.  Strips
from outside are checked by `strip` and `from_rows`; the walks here build
valid ones.

  * "reduced" means the leftmost column is shorter than n;
  * stabilization appends full columns of height n at the lower-left end.

A rapidity sequence, strictly increasing positive integers that are past
some index the class-k vacuum (every x with x % n != k), is the text of its
shortest motif, such as "0110|": bits whose 1-positions are its members,
then '|' for the vacuum, (1^{n-1}, 0) repeating.  As for a strip, the rank
is kept beside it, and k = (len(text) - 1) % n.  `rapidity` and `motif`
check one from outside, and `to_record` gives its canonical fields.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate

from .partitions import _require_ints, _shown, partition


def transpose(parts) -> tuple[int, ...]:
    """The other run-length reading of a ribbon's walk: the rows of the
    strip with columns `parts`, or the columns of the one with rows `parts`.
    A composition of m cuts the walk's m - 1 steps at its partial sums; the
    rows cut it exactly where the columns do not, so each reading is the
    complement of the other."""
    if not parts:
        return ()
    dual, run = [], 1
    for i, p in enumerate(parts):
        if i:
            run += 1
        for _ in range(p - 1):
            dual.append(run)
            run = 1
    return tuple(dual + [run])


def strip(cols, n: int) -> tuple[int, ...]:
    """The rank-n strip with column heights b_1..b_s (right to left), each an
    `int` in 1..n, checked."""
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
    cols = _require_ints(cols, "column heights")
    for j, b in enumerate(cols):
        if not 1 <= b <= n:
            bound = f"> n={n}" if b > n else "< 1"
            raise ValueError(
                f"column {len(cols) - j} (from the left) has height {b} {bound}"
            )
    return cols


def from_rows(rows, n: int) -> tuple[int, ...]:
    """The rank-n strip with row lengths a_1..a_r (top to bottom), each an
    `int`, checked; zero rows are dropped."""
    rows = [a for a in _require_ints(rows, "row lengths") if a != 0]
    for i, a in enumerate(rows):
        if a < 0:
            raise ValueError(f"row lengths must be positive: {_shown(rows, i)}")
    return strip(transpose(rows), n)


def shape(cols) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(outer, inner) in canonical position, built bottom row first; the
    zero parts of inner, at its bottom, are dropped."""
    outer, inner = [], []
    for a in reversed(transpose(cols)):
        start = outer[-1] - 1 if outer else 0
        if start:
            inner.append(start)
        outer.append(start + a)
    return tuple(outer[::-1]), tuple(inner[::-1])


def is_reduced(cols, n: int) -> bool:
    return not cols or cols[-1] < n


def reduce(cols, n: int) -> tuple[int, ...]:
    """Delete stabilized full columns at the left end."""
    while cols and cols[-1] == n:
        cols = cols[:-1]
    return cols


def to_dict(cols, n: int) -> dict:
    return {"rows": list(transpose(cols)), "cols": list(cols), "n": n}


def enumerate_border_strips(n: int, size: int, reduced: bool) -> list[tuple[int, ...]]:
    """All rank-n border strips of the given size, optionally reduced (b_s < n)."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    if size < 0:
        raise ValueError("size must be >= 0")
    out: list[tuple[int, ...]] = []
    _append_strips(n, size, reduced, (), out)
    return out


def _append_strips(n: int, remaining: int, reduced: bool, cols: tuple, out: list) -> None:
    """Append to `out` every strip whose column heights (right to left) extend
    `cols` by `remaining` boxes.  A module-level function, not a closure, so
    that no reference cycle keeps the strips alive."""
    if remaining == 0:
        if not (reduced and cols and cols[-1] == n):
            out.append(cols)
        return
    for b in range(1, min(n, remaining) + 1):
        _append_strips(n, remaining - b, reduced, cols + (b,), out)


def energy(cols, n: int) -> Fraction:
    """E(kappa) of the rank-n strip: quadratic size term plus the row
    (equivalently column) statistic.  Both forms are compared as the
    integers 2n*E."""
    m = sum(cols)
    rows = transpose(cols)
    r = len(rows)
    row_form = (n - 1) * m * m + 2 * n * sum(
        (i - r) * a for i, a in enumerate(rows, start=1)
    )
    s = len(cols)
    col_form = m * (n - m) + 2 * n * sum(
        (s - i) * b for i, b in enumerate(cols, start=1)
    )
    if is_reduced(cols, n) and row_form != col_form:
        raise AssertionError(
            f"row/column energy mismatch on reduced strip {cols} at n={n}: "
            f"2n*E = {row_form} != {col_form}"
        )
    return Fraction(row_form, 2 * n)


def rapidity(n: int, k: int, prefix, stab: int) -> str:
    """The text of the rank-n sequence of class k whose members are the
    `prefix` and every x > `stab` with x % n != k (the class-k vacuum
    pattern), checked: the prefix strictly increasing positive ints, none
    past `stab` >= 0, 0 <= k < n (any other k is refused, not reduced mod n),
    and no n consecutive members."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    prefix = _require_ints(prefix, "rapidities")
    for i in range(1, len(prefix)):
        if prefix[i] <= prefix[i - 1]:
            raise ValueError(f"prefix must be strictly increasing: {_shown(prefix, i)}")
    if prefix and prefix[0] < 1:
        raise ValueError("rapidities must be positive")
    if prefix and prefix[-1] > stab:
        raise ValueError("prefix entries must not exceed the stabilization index")
    if stab < 0:
        raise ValueError("stabilization index must be >= 0")
    if not 0 <= k < n:
        raise ValueError(f"class k must satisfy 0 <= k < n, got k={k}, n={n}")
    ones = set(prefix)
    return motif("".join("1" if (x in ones if x <= stab else x % n != k) else "0"
                         for x in range(1, stab + (k - stab) % n + 1)) + "|", n)


def motif(text: str, n: int) -> str:
    """The text of the rank-n sequence whose members are the 1-positions of
    the motif `text`, of class k = (number of bits) mod n, so that past the
    bits the tail is the vacuum: the shortest motif of the sequence, checked.

    Of n consecutive integers one is of class k, and past the bits that one
    is no member; so a run of n members holds a bit position and ends at
    most n - 1 past the bits, and the first run is the first "1" * n in the
    bits and one tail block.  A text of length L is a motif of the sequence
    exactly when L = k (mod n) and the vacuum tail starts by L: when
    L >= stab, the last position that breaks the vacuum pattern, or 0.  The
    shortest one is `text` with its trailing (1^{n-1}, 0) blocks, which
    follow the pattern, removed, and every other one is it with blocks
    appended: so equal sequences have equal texts."""
    if not text.endswith("|"):
        raise ValueError("motif string must end with the stabilization mark '|'")
    bits = text[:-1]
    for i, c in enumerate(bits):
        if c not in "01":  # int() would also read non-ASCII digits
            raise ValueError(f"motif bits must be the characters 0 and 1: {_shown(bits, i)}")
    if n < 2:
        raise ValueError("rank must be >= 2")
    block = "1" * (n - 1) + "0"
    run = (bits + block).find("1" * n)
    if run >= 0:
        raise ValueError(f"{n} consecutive rapidities ending at {run + n}")
    end = len(bits)
    while end >= n and bits.startswith(block, end - n):
        end -= n
    return bits[:end] + "|"


def members_upto(text: str, n: int, horizon: int) -> list[int]:
    """The members in 1..horizon of the rank-n sequence with text `text`,
    in increasing order."""
    bits = text[:-1]
    k = len(bits) % n
    return [x for x, c in enumerate(bits[:horizon], start=1) if c == "1"] + [
        x for x in range(len(bits) + 1, horizon + 1) if x % n != k]


def to_record(text: str, n: int) -> dict:
    """The rank-n sequence with text `text` as {"n", "k", "prefix", "stab"}:
    `stab` is the last bit position that breaks the class-k vacuum pattern,
    or 0, and the prefix the members up to it."""
    bits = text[:-1]
    k = len(bits) % n
    stab = next((x for x in range(len(bits), 0, -1)
                 if (bits[x - 1] == "1") != (x % n != k)), 0)
    return {"n": n, "k": k, "prefix": members_upto(text, n, stab), "stab": stab}


def strip_to_rapidity(cols, n: int) -> str:
    """Stabilize the rank-n strip with full columns, read rows, take partial
    sums."""
    if not is_reduced(cols, n):
        raise ValueError("only reduced strips correspond to rapidity sequences")
    total = sum(cols)
    return rapidity(n, total % n, accumulate(transpose(cols)[:-1]), total)


def rapidity_to_strip(text: str, n: int) -> tuple[int, ...]:
    """Cut the rank-n sequence with the text `text` of `rapidity` or `motif`
    at S, the least S >= 0 with S = k (mod n), S not a member, and the
    vacuum above S; the rows are the gaps between 0, the members below S,
    and S.  The text's length L is the least index of class k past the
    last position that breaks the vacuum, so S = L, or L + n if L > 0 is a
    member."""
    length = len(text) - 1
    cut = length + n if length and text[length - 1] == "1" else length
    marks = [0, *members_upto(text, n, cut - 1), cut]
    return from_rows([b - a for a, b in zip(marks, marks[1:])], n)


def motif_to_strip(text: str, n: int) -> tuple[int, ...]:
    """Square construction: a 1-bit places the next square under (same
    column), a 0-bit to the left (a new column).

    The text is checked by `motif`.  The tail, and any tail
    block that ends the text, builds full columns, which are deleted.
    """
    motif(text, n)
    walk = text[:-1] + "1" * (n - 1)  # complete the tail's column
    return reduce(tuple(len(run) + 1 for run in walk.split("0")), n)


def modes_to_strip(modes, n: int) -> tuple[int, ...]:
    """Square construction for mode sequences: equal mode stacks on top,
    strictly larger mode moves right.  The modes are read once, in time
    linear in their number: from a first mode 0 each step rises by 0 or 1,
    and each run of equal modes is one column."""
    modes = list(modes)
    if not modes:
        raise ValueError("mode list must be non-empty")
    if any(x < 0 for x in modes):
        raise ValueError("modes must be non-negative")
    for i in range(1, len(modes)):
        if modes[i] < modes[i - 1]:
            raise ValueError(f"modes must be weakly increasing: {_shown(modes, i)}")
    runs: list[int] = []  # runs[v] counts the modes equal to v
    for i, x in enumerate(modes):
        if x == len(runs):
            runs.append(1)
        elif x == len(runs) - 1:
            runs[-1] += 1
        else:
            raise ValueError(f"gap in mode values: {len(runs)} missing from {_shown(modes, i)}")
    cols = strip(runs[::-1], n)  # the largest mode is the rightmost column
    s = len(cols)
    weighted = sum((s - i) * b for i, b in enumerate(cols, start=1))
    if sum(cols) != len(modes) or weighted != sum(modes):
        raise AssertionError(
            f"mode-square postcondition failed for {modes}: strip {cols}"
        )
    return cols


def sl2_partition_to_strip(lam, n_spinons: int) -> tuple[int, ...]:
    """Strip attached to (lambda, N) at n=2: rows m_{i-1}+2 with boundary rows
    one shorter (and the single-row case collapsing to <N>)."""
    lam = partition(lam)
    if len(lam) > n_spinons:
        raise ValueError(f"need l(lambda) <= N, got l={len(lam)}, N={n_spinons}")
    mult = Counter(lam)  # one pass: part size -> its number of parts
    m0 = n_spinons - len(lam)
    r = lam[0] + 1 if lam else 1
    rows = []
    for i in range(1, r + 1):
        mi = m0 if i == 1 else mult[i - 1]
        rows.append(mi + 2 - (1 if i == 1 else 0) - (1 if i == r else 0))
    cols = from_rows(rows, 2)
    if sum(cols) != n_spinons + 2 * (r - 1) and rows != [0]:
        raise AssertionError(f"size identity failed for ({lam}, {n_spinons})")
    e = energy(cols, 2)
    if e != sum(lam) + Fraction(n_spinons * n_spinons, 4):
        raise AssertionError(
            f"energy identity failed for ({lam}, {n_spinons}): "
            f"E = {e} != |lambda| + N^2/4"
        )
    return cols


def rapidity_energy(text: str, n: int, convention: str = "literal") -> Fraction:
    """Experimental: Delta_k minus the summed deviation from the vacuum, for
    the rank-n sequence with text `text`.

    convention "literal": pair the i-th entry with the i-th vacuum entry;
    raises if the tails never align (divergent pairing).
    convention "tail": shift the pairing so the stabilized tails cancel.
    """
    from .affine import conformal_dimension  # here, so that `strips` loads alone
    if convention not in ("literal", "tail"):
        raise ValueError(f"unknown convention {convention!r}")
    record = to_record(text, n)
    k = record["k"]
    horizon = max(record["stab"], n) + 2 * n
    mem = members_upto(text, n, horizon)
    vmem = [x for x in range(1, horizon + 1) if x % n != k]  # the class-k vacuum
    shift = len(mem) - len(vmem)
    if convention == "literal":
        if shift != 0:
            raise ValueError(
                f"divergent pairing: sequence has {shift:+d} entries relative "
                f"to the class-{k} vacuum below {horizon}"
            )
        shift = 0
    deviation = 0
    for i in range(len(vmem)):
        j = i + shift
        if 0 <= j < len(mem):
            deviation += mem[j] - vmem[i]
    return conformal_dimension(n, k) - deviation


def discover_rapidity_convention(max_size: int = 6, ranks=(2, 3)) -> dict:
    """Compare rapidity_energy against energy() on a census of reduced strips."""
    report: dict = {"census": {"max_size": max_size, "ranks": list(ranks)},
                    "conventions": {}}
    for convention in ("literal", "tail"):
        matches = 0
        mismatches = []
        for n in ranks:
            for size in range(max_size + 1):
                for cols in enumerate_border_strips(n, size, reduced=True):
                    expected = energy(cols, n)
                    try:
                        got = rapidity_energy(strip_to_rapidity(cols, n), n, convention)
                    except ValueError as exc:
                        mismatches.append(
                            {"strip": to_dict(cols, n), "expected": str(expected),
                             "error": str(exc)}
                        )
                        continue
                    if got == expected:
                        matches += 1
                    else:
                        mismatches.append(
                            {"strip": to_dict(cols, n), "expected": str(expected),
                             "got": str(got)}
                        )
        report["conventions"][convention] = {
            "matches": matches,
            "mismatch_count": len(mismatches),
            "mismatches": mismatches,
        }
    good = [c for c, r in report["conventions"].items() if r["mismatch_count"] == 0]
    report["conclusion"] = (
        f"convention {good[0]!r} reproduces the strip energy on the census"
        if good
        else "no single alignment convention reproduces the strip energy; "
             "see the mismatch records"
    )
    return report
