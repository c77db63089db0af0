"""Border strips, rapidity sequences, motifs, and the bijections among them.

Conventions (fixed once, used everywhere):
  * rows <a_1..a_r> are read top to bottom; each lower row extends left with
    exactly one column of overlap;
  * columns [b_1..b_s] are read right to left (b_1 = rightmost column);
  * "reduced" means the leftmost column is shorter than n;
  * stabilization appends full columns of height n at the lower-left end.
"""
from __future__ import annotations

from fractions import Fraction

from .partitions import Partition, SkewShape


class BorderStrip:
    """A rank-n border strip in canonical position (bottom-left box in column 1)."""

    __slots__ = ("n", "rows", "cols", "shape")

    def __init__(self, shape: SkewShape, n: int):
        if n < 2:
            raise ValueError(f"rank must be >= 2, got {n}")
        outer, inner = shape.outer, shape.inner
        r = len(outer)
        rows = []
        for i in range(1, r + 1):
            a = outer[i] - inner[i]
            if a <= 0:
                raise ValueError(f"row {i} of {shape} is empty: not connected")
            rows.append(a)
        for i in range(1, r):
            overlap = outer[i + 1] - inner[i]
            if overlap < 1:
                raise ValueError(
                    f"rows {i} and {i + 1} of {shape} do not touch: disconnected"
                )
            if overlap > 1:
                raise ValueError(
                    f"2x2 block at row {i}, column {outer[i + 1]} of {shape}"
                )
        if r > 0 and inner[r] != 0:
            raise ValueError(f"{shape} is not in canonical position (bottom-left gap)")
        cols = tuple(reversed(shape.column_heights()))
        for j, b in enumerate(cols):
            if b > n:
                raise ValueError(
                    f"column {len(cols) - j} (from the left) has height {b} > n={n}"
                )
        self.n = n
        self.rows = tuple(rows)
        self.cols = cols
        self.shape = shape

    @staticmethod
    def from_rows(rows, n: int) -> "BorderStrip":
        """Build the canonical strip with row lengths a_1..a_r (top to bottom)."""
        rows = [int(a) for a in rows if a != 0]
        if any(a < 0 for a in rows):
            raise ValueError(f"row lengths must be positive: {rows}")
        if not rows:
            return BorderStrip(SkewShape(Partition(), Partition()), n)
        r = len(rows)
        lam = [0] * r
        mu = [0] * r
        lam[r - 1] = rows[r - 1]
        for i in range(r - 2, -1, -1):
            mu[i] = lam[i + 1] - 1
            lam[i] = mu[i] + rows[i]
        return BorderStrip(SkewShape(Partition(lam), Partition(mu)), n)

    @staticmethod
    def from_cols(cols, n: int) -> "BorderStrip":
        """Build the canonical strip with column heights b_1..b_s (right to left)."""
        cols = [int(b) for b in cols if b != 0]
        if not cols:
            return BorderStrip(SkewShape(Partition(), Partition()), n)
        # column j (1-indexed, rightmost first) covers rows top_j..top_j+b_j-1
        tops = [1]
        for b in cols[:-1]:
            tops.append(tops[-1] + b - 1)
        r = tops[-1] + cols[-1] - 1
        rows = [0] * r
        for t, b in zip(tops, cols):
            for i in range(t, t + b):
                rows[i - 1] += 1
        return BorderStrip.from_rows(rows, n)

    def size(self) -> int:
        return sum(self.rows)

    def is_reduced(self) -> bool:
        return not self.cols or self.cols[-1] < self.n

    def reduce(self) -> "BorderStrip":
        """Delete stabilized full columns at the left end."""
        cols = list(self.cols)
        while cols and cols[-1] == self.n:
            cols.pop()
        return BorderStrip.from_cols(cols, self.n)

    def to_dict(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols), "n": self.n}

    def __eq__(self, other):
        if not isinstance(other, BorderStrip):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"BorderStrip(rows={list(self.rows)}, cols={list(self.cols)}, n={self.n})"


def enumerate_border_strips(n: int, size: int, reduced: bool) -> list[BorderStrip]:
    """All rank-n border strips of the given size, optionally reduced (b_s < n)."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return [BorderStrip.from_rows([], n)]
    out: list[BorderStrip] = []
    _append_strips(n, size, reduced, [], out)
    return out


def _append_strips(n: int, remaining: int, reduced: bool, cols: list, out: list) -> None:
    """Append to `out` every strip whose column heights (right to left) extend
    `cols` by `remaining` boxes.  A module-level function, not a closure, so
    that no reference cycle keeps the strips alive."""
    if remaining == 0:
        if not reduced or cols[-1] < n:
            out.append(BorderStrip.from_cols(cols, n))
        return
    for b in range(1, min(n, remaining) + 1):
        _append_strips(n, remaining - b, reduced, cols + [b], out)


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
            strip = BorderStrip.from_cols(cols[::-1], n)
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
    with x % n != k % n (the class-k vacuum pattern).
    """

    __slots__ = ("n", "k", "prefix", "stab")

    def __init__(self, n: int, k: int, prefix, stab: int):
        if n < 2:
            raise ValueError("rank must be >= 2")
        prefix = tuple(int(x) for x in prefix)
        if list(prefix) != sorted(set(prefix)):
            raise ValueError(f"prefix must be strictly increasing: {prefix}")
        if prefix and prefix[0] < 1:
            raise ValueError("rapidities must be positive")
        if prefix and prefix[-1] > stab:
            raise ValueError("prefix entries must not exceed the stabilization index")
        if stab < 0:
            raise ValueError("stabilization index must be >= 0")
        self.n = n
        self.k = k % n
        self.prefix = prefix
        self.stab = stab
        self._validate_runs()

    def member(self, x: int) -> bool:
        if x < 1:
            return False
        if x <= self.stab:
            return x in self.prefix
        return x % self.n != self.k

    def _validate_runs(self) -> None:
        run = 0
        for x in range(1, self.stab + self.n + 2):
            if self.member(x):
                run += 1
                if run >= self.n:
                    raise ValueError(
                        f"{self.n} consecutive rapidities ending at {x}"
                    )
            else:
                run = 0

    def members_upto(self, horizon: int) -> list[int]:
        return [x for x in range(1, horizon + 1) if self.member(x)]

    def canonical(self) -> "RapiditySeq":
        """Smallest stabilization index describing the same sequence."""
        stab = self.stab
        while stab > 0:
            x = stab
            if self.member(x) == (x % self.n != self.k):
                stab -= 1
            else:
                break
        prefix = tuple(x for x in self.prefix if x <= stab)
        return RapiditySeq(self.n, self.k, prefix, stab)

    def __eq__(self, other):
        if not isinstance(other, RapiditySeq):
            return NotImplemented
        if (self.n, self.k) != (other.n, other.k):
            return False
        a, b = self.canonical(), other.canonical()
        return a.prefix == b.prefix and a.stab == b.stab

    def __hash__(self):
        c = self.canonical()
        return hash((c.n, c.k, c.prefix, c.stab))

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
    n = strip.n
    total = strip.size()
    partial = []
    acc = 0
    for a in strip.rows[:-1]:
        acc += a
        partial.append(acc)
    return RapiditySeq(n, total % n, tuple(partial), total).canonical()


def rapidity_to_strip(seq: RapiditySeq, n: int | None = None) -> BorderStrip:
    if n is None:
        n = seq.n
    if n != seq.n:
        raise ValueError("rank mismatch")
    # find the least S >= 0 with S = k (mod n), S not a member, and every
    # x > S a member exactly when x is not congruent to k (mod n); past stab
    # the tail is the vacuum pattern, so some S <= stab + n qualifies
    horizon = seq.stab
    members = set(seq.members_upto(horizon))
    for s_val in range(seq.k, horizon + n + 1, n):
        if s_val not in members and all(
            (x in members) == (x % n != seq.k) for x in range(s_val + 1, horizon + 1)
        ):
            break
    else:  # pragma: no cover - representation guarantees a cut
        raise AssertionError(f"no stabilization cut found for {seq}")
    below = [x for x in range(1, s_val) if seq.member(x)]
    if not below and s_val == 0:
        return BorderStrip.from_rows([], n)
    rows = []
    prev = 0
    for x in below:
        rows.append(x - prev)
        prev = x
    rows.append(s_val - prev)
    return BorderStrip.from_rows(rows, n)


class Motif:
    """A semi-infinite 0/1 sequence: explicit bits, then (1^{n-1},0) repeating.

    The 1-positions are the rapidities; the conjugacy class is len(bits) mod n.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits):
        if n < 2:
            raise ValueError("rank must be >= 2")
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1: {bits}")
        self.n = n
        self.bits = bits
        run = 0
        for x in range(1, len(bits) + n + 1):
            if self.bit(x):
                run += 1
                if run >= n:
                    raise ValueError(f"{n} consecutive 1-bits ending at position {x}")
            else:
                run = 0

    def bit(self, pos: int) -> int:
        """Bit at 1-indexed position; tail is (1^{n-1},0) repeating."""
        if pos <= len(self.bits):
            return self.bits[pos - 1]
        return 0 if (pos - len(self.bits)) % self.n == 0 else 1

    def k_class(self) -> int:
        return len(self.bits) % self.n

    def canonical(self) -> "Motif":
        bits = list(self.bits)
        while len(bits) >= self.n:
            block = bits[-self.n:]
            if block == [1] * (self.n - 1) + [0]:
                del bits[-self.n:]
            else:
                break
        return Motif(self.n, bits)

    def serialize(self) -> str:
        return "".join(str(b) for b in self.bits) + "|"

    @staticmethod
    def parse(text: str, n: int) -> "Motif":
        if not text.endswith("|"):
            raise ValueError("motif string must end with the stabilization mark '|'")
        return Motif(n, [int(c) for c in text[:-1]])

    def __eq__(self, other):
        if not isinstance(other, Motif):
            return NotImplemented
        return self.n == other.n and self.canonical().bits == other.canonical().bits

    def __hash__(self):
        return hash((self.n, self.canonical().bits))

    def __repr__(self):
        return f"Motif(n={self.n}, bits={self.serialize()!r})"


def motif_to_rapidity(m: Motif) -> RapiditySeq:
    ones = tuple(x for x in range(1, len(m.bits) + 1) if m.bits[x - 1] == 1)
    return RapiditySeq(m.n, m.k_class(), ones, len(m.bits)).canonical()


def rapidity_to_motif(seq: RapiditySeq) -> Motif:
    length = seq.stab
    while length % seq.n != seq.k:
        length += 1
    bits = [1 if seq.member(x) else 0 for x in range(1, length + 1)]
    return Motif(seq.n, bits).canonical()


def _cells_to_strip(cells, n: int) -> BorderStrip:
    """Convert a set of (row, col) cells to a canonical BorderStrip."""
    by_row: dict[int, list[int]] = {}
    for r, c in cells:
        by_row.setdefault(r, []).append(c)
    rows_sorted = sorted(by_row)
    spans = []
    for r in rows_sorted:
        cs = sorted(by_row[r])
        if cs != list(range(cs[0], cs[-1] + 1)):
            raise ValueError(f"row {r} is not contiguous: {cs}")
        spans.append((cs[0], cs[-1]))
    for i in range(len(spans) - 1):
        if spans[i + 1][1] != spans[i][0]:
            raise ValueError(
                f"rows {rows_sorted[i]} and {rows_sorted[i + 1]} do not overlap "
                "in exactly one column"
            )
    return BorderStrip.from_rows([hi - lo + 1 for lo, hi in spans], n)


def motif_to_strip(m: Motif, n: int | None = None) -> BorderStrip:
    """Square construction: 1-bit places the next square under, 0-bit to the left.

    The stabilized tail builds full columns, which are deleted (reduced form).
    """
    if n is None:
        n = m.n
    if n != m.n:
        raise ValueError("rank mismatch")
    walk = list(m.bits) + [1] * (n - 1)  # complete the final column of the tail
    r = c = 0
    cells = [(0, 0)]
    for b in walk:
        if b == 1:
            r += 1
        else:
            c -= 1
        cells.append((r, c))
    return _cells_to_strip(cells, n).reduce()


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
    r = c = 0
    cells = [(0, 0)]
    for prev, cur in zip(modes, modes[1:]):
        if cur == prev:
            r -= 1
        else:
            c += 1
        cells.append((r, c))
    strip = _cells_to_strip(cells, n)
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
    # the energy identity |lambda| + N^2/4 = kappa^2/4 + row statistic, times 4
    lhs = 4 * lam.size() + n_spinons * n_spinons
    kappa = strip.size()
    rhs = kappa * kappa + 4 * sum(
        (i - len(strip.rows)) * a for i, a in enumerate(strip.rows, start=1)
    )
    if lhs != rhs:
        raise AssertionError(
            f"energy identity failed for ({lam}, {n_spinons}): 4E = {lhs} != {rhs}"
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
