"""Border strips, rapidity sequences, motifs, and the bijections among them.

A border strip (ribbon) is stored as its column composition.  Walk the strip
from its top-right box by unit steps left or down: the columns [b_1..b_s] are
the runs of the walk between left steps, read right to left (b_1 = rightmost
column), and the rows <a_1..a_r> are its runs between down steps, read top to
bottom.  Each composition determines the other (`_transpose`), so no skew
shape is stored; `BorderStrip.shape` draws one on demand in canonical
position (bottom-left box in column 1), each lower row extending left with
exactly one column of overlap.

  * "reduced" means the leftmost column is shorter than n;
  * stabilization appends full columns of height n at the lower-left end.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .partitions import Partition, SkewShape, _require_ints


def _check_runs(member, last: int, n: int, what: str) -> None:
    """Raise ValueError if n consecutive positions among 1..last satisfy
    `member`.  Each caller passes a `last` past which its stabilized tail
    leaves a gap in every n positions."""
    run = 0
    for x in range(1, last + 1):
        run = run + 1 if member(x) else 0
        if run >= n:
            raise ValueError(f"{n} consecutive {what} ending at {x}")


def _transpose(parts) -> tuple[int, ...]:
    """The other run-length reading of a ribbon's walk.  A composition of m
    cuts the walk's m - 1 steps at its partial sums; the rows cut it exactly
    where the columns do not, so each reading is the complement of the
    other."""
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


class BorderStrip:
    """A rank-n border strip, given by its column heights b_1..b_s (right to
    left), each an `int` in 1..n."""

    __slots__ = ("n", "cols", "rows")

    def __init__(self, cols, n: int):
        if n < 2:
            raise ValueError(f"rank must be >= 2, got {n}")
        cols = _require_ints(cols, "column heights")
        for j, b in enumerate(cols):
            if not 1 <= b <= n:
                bound = f"> n={n}" if b > n else "< 1"
                raise ValueError(
                    f"column {len(cols) - j} (from the left) has height {b} {bound}"
                )
        self.n = n
        self.cols = cols
        self.rows = _transpose(cols)

    @staticmethod
    def from_rows(rows, n: int) -> "BorderStrip":
        """Build the strip with row lengths a_1..a_r (top to bottom), each an
        `int`; zero rows are dropped."""
        rows = [a for a in _require_ints(rows, "row lengths") if a != 0]
        if any(a < 0 for a in rows):
            raise ValueError(f"row lengths must be positive: {rows}")
        return BorderStrip(_transpose(rows), n)

    @property
    def shape(self) -> SkewShape:
        """outer/inner in canonical position, built bottom row first."""
        outer, inner = [], []
        for a in reversed(self.rows):
            start = outer[-1] - 1 if outer else 0
            inner.append(start)
            outer.append(start + a)
        return SkewShape(Partition(outer[::-1]), Partition(inner[::-1]))

    def size(self) -> int:
        return sum(self.cols)

    def is_reduced(self) -> bool:
        return not self.cols or self.cols[-1] < self.n

    def reduce(self) -> "BorderStrip":
        """Delete stabilized full columns at the left end."""
        cols = self.cols
        while cols and cols[-1] == self.n:
            cols = cols[:-1]
        return BorderStrip(cols, self.n)

    def to_dict(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols), "n": self.n}

    def __eq__(self, other):
        if not isinstance(other, BorderStrip):
            return NotImplemented
        return self.n == other.n and self.cols == other.cols

    def __hash__(self):
        return hash((self.n, self.cols))

    def __repr__(self):
        return f"BorderStrip(rows={list(self.rows)}, cols={list(self.cols)}, n={self.n})"


def enumerate_border_strips(n: int, size: int, reduced: bool) -> list[BorderStrip]:
    """All rank-n border strips of the given size, optionally reduced (b_s < n)."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    if size < 0:
        raise ValueError("size must be >= 0")
    out: list[BorderStrip] = []
    _append_strips(n, size, reduced, (), out)
    return out


def _append_strips(n: int, remaining: int, reduced: bool, cols: tuple, out: list) -> None:
    """Append to `out` every strip whose column heights (right to left) extend
    `cols` by `remaining` boxes.  A module-level function, not a closure, so
    that no reference cycle keeps the strips alive."""
    if remaining == 0:
        if not (reduced and cols and cols[-1] == n):
            out.append(BorderStrip(cols, n))
        return
    for b in range(1, min(n, remaining) + 1):
        _append_strips(n, remaining - b, reduced, cols + (b,), out)


def energy(strip: BorderStrip) -> Fraction:
    """E(kappa): quadratic size term plus the row (equivalently column)
    statistic.  Both forms are compared as the integers 2n*E."""
    n, m = strip.n, strip.size()
    r = len(strip.rows)
    row_form = (n - 1) * m * m + 2 * n * sum(
        (i - r) * a for i, a in enumerate(strip.rows, start=1)
    )
    s = len(strip.cols)
    col_form = m * (n - m) + 2 * n * sum(
        (s - i) * b for i, b in enumerate(strip.cols, start=1)
    )
    if strip.is_reduced() and row_form != col_form:
        raise AssertionError(
            f"row/column energy mismatch on reduced strip {strip}: "
            f"2n*E = {row_form} != {col_form}"
        )
    return Fraction(row_form, 2 * n)


def reduced_strips(n: int, k: int, e2_max: int):
    """Yield (strip, e2) for every reduced rank-n strip of class k (size
    congruent to k mod n) with e2 = 2n * energy(strip) <= e2_max.

    Columns are appended left to right.  In the column form of `energy` a
    column's weight is the number of columns to its left, so appending a
    column of height b to a strip with s columns and m boxes raises 2n*E by
    exactly b * (2(n*s - m) + n - b).  The leftmost column is shorter than n,
    so n*s - m >= 1 once s >= 1, and every appended column raises 2n*E by at
    least n + 1: a prefix above e2_max has no extension within it.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    k %= n
    stack = [((), 0, 0)]  # (column heights left to right, boxes, 2n*E)
    while stack:
        cols, m, e2 = stack.pop()
        if m % n == k:
            strip = BorderStrip(cols[::-1], n)
            if energy(strip) * (2 * n) != e2:
                raise AssertionError(
                    f"energy increment identity fails on {strip}: "
                    f"2n*E = {energy(strip) * (2 * n)} != {e2}"
                )
            yield strip, e2
        s = len(cols)
        for b in range(1, n + 1 if s else n):
            grown = e2 + b * (2 * (n * s - m) + n - b)
            if grown <= e2_max:
                stack.append((cols + (b,), m + b, grown))


class RapiditySeq:
    """Semi-infinite strictly increasing positive integers, stabilized.

    Members are: the explicit prefix (all <= stab), plus every integer x > stab
    with x % n != k % n (the class-k vacuum pattern).  Only the canonical form
    is stored: `stab` is the smallest index describing the sequence (0, or a
    position where the sequence breaks the vacuum pattern) and the prefix
    keeps the members up to it, so equal sequences have equal fields.
    """

    __slots__ = ("n", "k", "prefix", "stab")

    def __init__(self, n: int, k: int, prefix, stab: int):
        if n < 2:
            raise ValueError("rank must be >= 2")
        prefix = _require_ints(prefix, "rapidities")
        if list(prefix) != sorted(set(prefix)):
            raise ValueError(f"prefix must be strictly increasing: {prefix}")
        if prefix and prefix[0] < 1:
            raise ValueError("rapidities must be positive")
        if prefix and prefix[-1] > stab:
            raise ValueError("prefix entries must not exceed the stabilization index")
        if stab < 0:
            raise ValueError("stabilization index must be >= 0")
        k %= n
        members = set(prefix)
        while stab > 0 and (stab in members) == (stab % n != k):
            stab -= 1
        self.n = n
        self.k = k
        self.prefix = tuple(x for x in prefix if x <= stab)
        self.stab = stab
        _check_runs(self.member, stab + n + 1, n, "rapidities")

    def member(self, x: int) -> bool:
        if x < 1:
            return False
        if x <= self.stab:
            return x in self.prefix
        return x % self.n != self.k

    def members_upto(self, horizon: int) -> list[int]:
        return [x for x in range(1, horizon + 1) if self.member(x)]

    def __eq__(self, other):
        if not isinstance(other, RapiditySeq):
            return NotImplemented
        return (self.n, self.k, self.prefix, self.stab) == (
            other.n, other.k, other.prefix, other.stab)

    def __hash__(self):
        return hash((self.n, self.k, self.prefix, self.stab))

    def __repr__(self):
        return (
            f"RapiditySeq(n={self.n}, k={self.k}, "
            f"prefix={list(self.prefix)}, stab={self.stab})"
        )


def vacuum_rapidities(n: int, k: int) -> RapiditySeq:
    """The class-k vacuum: all positive integers not congruent to k mod n."""
    return RapiditySeq(n, k, (), 0)


def strip_to_rapidity(strip: BorderStrip) -> RapiditySeq:
    """Stabilize the strip with full columns, read rows, take partial sums."""
    if not strip.is_reduced():
        raise ValueError("only reduced strips correspond to rapidity sequences")
    total = strip.size()
    return RapiditySeq(strip.n, total % strip.n, accumulate(strip.rows[:-1]), total)


def rapidity_to_strip(seq: RapiditySeq, n: int | None = None) -> BorderStrip:
    """Cut the sequence at S, the least S >= 0 with S = k (mod n), S not a
    member, and the vacuum pattern above S; the rows are the gaps between
    0, the members below S, and S.  Above the canonical `stab` the sequence
    is the vacuum and at `stab` > 0 it is not, so S is k when `stab` = 0 and
    otherwise the first index past `stab` congruent to k."""
    if n is None:
        n = seq.n
    if n != seq.n:
        raise ValueError("rank mismatch")
    cut = seq.stab + (seq.k - seq.stab - 1) % n + 1 if seq.stab else seq.k
    marks = [0, *seq.members_upto(cut - 1), cut]
    return BorderStrip.from_rows([b - a for a, b in zip(marks, marks[1:])], n)


class Motif:
    """A semi-infinite 0/1 sequence: explicit bits, then (1^{n-1},0) repeating.

    The 1-positions are the rapidities; the conjugacy class is len(bits) mod n.
    Only the canonical form is stored: `bits` never ends in a (1^{n-1},0)
    block, which the tail would repeat, so equal motifs have equal bits.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits):
        if n < 2:
            raise ValueError("rank must be >= 2")
        bits = _require_ints(bits, "bits")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1: {bits}")
        block = (1,) * (n - 1) + (0,)
        while bits[-n:] == block:  # fewer than n bits never match the block
            bits = bits[:-n]
        self.n = n
        self.bits = bits
        _check_runs(self.bit, len(bits) + n, n, "1-bits")

    def bit(self, pos: int) -> int:
        """Bit at 1-indexed position; tail is (1^{n-1},0) repeating."""
        if pos <= len(self.bits):
            return self.bits[pos - 1]
        return 0 if (pos - len(self.bits)) % self.n == 0 else 1

    def k_class(self) -> int:
        return len(self.bits) % self.n

    def serialize(self) -> str:
        return "".join(str(b) for b in self.bits) + "|"

    @staticmethod
    def parse(text: str, n: int) -> "Motif":
        if not text.endswith("|"):
            raise ValueError("motif string must end with the stabilization mark '|'")
        bits = text[:-1]
        if not set(bits) <= {"0", "1"}:  # int() would also read non-ASCII digits
            raise ValueError(f"motif bits must be the characters 0 and 1: {bits!r}")
        return Motif(n, [int(c) for c in bits])

    def __eq__(self, other):
        if not isinstance(other, Motif):
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"Motif(n={self.n}, bits={self.serialize()!r})"


def motif_to_rapidity(m: Motif) -> RapiditySeq:
    ones = tuple(x for x in range(1, len(m.bits) + 1) if m.bits[x - 1] == 1)
    return RapiditySeq(m.n, m.k_class(), ones, len(m.bits))


def rapidity_to_motif(seq: RapiditySeq) -> Motif:
    """Read the sequence's bits up to the first length >= stab of class k."""
    length = seq.stab + (seq.k - seq.stab) % seq.n
    return Motif(seq.n, [1 if seq.member(x) else 0 for x in range(1, length + 1)])


def motif_to_strip(m: Motif, n: int | None = None) -> BorderStrip:
    """Square construction: a 1-bit places the next square under (same
    column), a 0-bit to the left (a new column).

    The stabilized tail builds full columns, which are deleted (reduced form).
    """
    if n is None:
        n = m.n
    if n != m.n:
        raise ValueError("rank mismatch")
    walk = "".join(map(str, m.bits)) + "1" * (n - 1)  # complete the tail's column
    return BorderStrip([len(run) + 1 for run in walk.split("0")], n).reduce()


def modes_to_strip(modes, n: int) -> BorderStrip:
    """Square construction for mode sequences: equal mode stacks on top,
    strictly larger mode moves right."""
    modes = list(modes)
    if not modes:
        raise ValueError("mode list must be non-empty")
    if any(x < 0 for x in modes):
        raise ValueError("modes must be non-negative")
    if modes != sorted(modes):
        raise ValueError(f"modes must be weakly increasing: {modes}")
    needed = set(range(modes[-1] + 1))
    if set(modes) != needed:
        missing = sorted(needed - set(modes))
        raise ValueError(f"gap in mode values: {missing} missing from {modes}")
    # each run of equal modes is one column; the largest mode is rightmost
    strip = BorderStrip([modes.count(v) for v in range(modes[-1], -1, -1)], n)
    s = len(strip.cols)
    weighted = sum((s - i) * b for i, b in enumerate(strip.cols, start=1))
    if strip.size() != len(modes) or weighted != sum(modes):
        raise AssertionError(
            f"mode-square postcondition failed for {modes}: strip {strip}"
        )
    return strip


def sl2_partition_to_strip(lam: Partition, n_spinons: int) -> BorderStrip:
    """Strip attached to (lambda, N) at n=2: rows m_{i-1}+2 with boundary rows
    one shorter (and the single-row case collapsing to <N>)."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > n_spinons:
        raise ValueError(f"need l(lambda) <= N, got l={len(lam)}, N={n_spinons}")
    mult = lam.multiplicities()
    m0 = n_spinons - len(lam)
    r = (lam.parts[0] + 1) if lam.parts else 1
    rows = []
    for i in range(1, r + 1):
        mi = m0 if i == 1 else mult.get(i - 1, 0)
        rows.append(mi + 2 - (1 if i == 1 else 0) - (1 if i == r else 0))
    strip = BorderStrip.from_rows(rows, 2)
    if strip.size() != n_spinons + 2 * (r - 1) and rows != [0]:
        raise AssertionError(f"size identity failed for ({lam}, {n_spinons})")
    e = energy(strip)
    if e != lam.size() + Fraction(n_spinons * n_spinons, 4):
        raise AssertionError(
            f"energy identity failed for ({lam}, {n_spinons}): "
            f"E = {e} != |lambda| + N^2/4"
        )
    return strip


def rapidity_energy(seq: RapiditySeq, n: int, convention: str = "literal") -> Fraction:
    """Experimental: Delta_k minus the summed deviation from the vacuum.

    convention "literal": pair the i-th entry with the i-th vacuum entry;
    raises if the tails never align (divergent pairing).
    convention "tail": shift the pairing so the stabilized tails cancel.
    """
    if n != seq.n:
        raise ValueError("rank mismatch")
    if convention not in ("literal", "tail"):
        raise ValueError(f"unknown convention {convention!r}")
    vac = vacuum_rapidities(n, seq.k)
    horizon = max(seq.stab, n) + 2 * n
    mem = seq.members_upto(horizon)
    vmem = vac.members_upto(horizon)
    shift = len(mem) - len(vmem)
    if convention == "literal":
        if shift != 0:
            raise ValueError(
                f"divergent pairing: sequence has {shift:+d} entries relative "
                f"to the class-{seq.k} vacuum below {horizon}"
            )
        shift = 0
    deviation = 0
    for i in range(len(vmem)):
        j = i + shift
        if 0 <= j < len(mem):
            deviation += mem[j] - vmem[i]
    delta = Fraction(seq.k * (n - seq.k), 2 * n)
    return delta - deviation


def discover_rapidity_convention(max_size: int = 6, ranks=(2, 3)) -> dict:
    """Compare rapidity_energy against energy() on a census of reduced strips."""
    report: dict = {"census": {"max_size": max_size, "ranks": list(ranks)},
                    "conventions": {}}
    for convention in ("literal", "tail"):
        matches = 0
        mismatches = []
        for n in ranks:
            for size in range(max_size + 1):
                for strip in enumerate_border_strips(n, size, reduced=True):
                    expected = energy(strip)
                    seq = strip_to_rapidity(strip)
                    try:
                        got = rapidity_energy(seq, n, convention)
                    except ValueError as exc:
                        mismatches.append(
                            {"strip": strip.to_dict(), "expected": str(expected),
                             "error": str(exc)}
                        )
                        continue
                    if got == expected:
                        matches += 1
                    else:
                        mismatches.append(
                            {"strip": strip.to_dict(), "expected": str(expected),
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
