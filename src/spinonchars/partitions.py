"""Partitions, skew shapes and horizontal strips (English notation)."""
from __future__ import annotations

from functools import lru_cache, total_ordering


def _require_ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple if every entry is an `int`; a float, string or
    bool raises TypeError instead of being truncated."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} must be ints, got {v!r}")
    return values


def _brief(text: str, width: int) -> str:
    """`text`, or its first width - 3 characters and "...", so that an error
    quoting what it was given stays one short line."""
    return text if len(text) <= width else text[:width - 3] + "..."


def _shown(values, at: int) -> str:
    """repr(values), as an error message quotes them, or, past 60
    characters, their number and the entry at index `at`, the first
    offending one, with the entry before it."""
    text = repr(values)
    if len(text) <= 60:
        return text
    lo = max(at - 1, 0)
    near = ", ".join(_brief(repr(v), 12) for v in values[lo:at + 1])
    return f"{len(values)} entries, [{lo}:{at + 1}] = [{near}]"


@total_ordering
class Partition:
    """A weakly decreasing tuple of positive integers; zero parts are dropped.
    A part that is not an `int` (a float, a string or a bool) raises
    TypeError."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = _require_ints(parts, "parts")
        if 0 in parts:
            parts = tuple(p for p in parts if p)
        for i in range(len(parts) - 1):
            if parts[i] < parts[i + 1]:
                raise ValueError(f"parts not weakly decreasing: {_shown(parts, i + 1)}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be positive: {_shown(parts, len(parts) - 1)}")
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        """1-indexed part access; parts beyond the length are 0."""
        if i < 1:
            raise IndexError("parts are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            sum(1 for p in self.parts if p >= i) for i in range(1, self.parts[0] + 1)
        )

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def contains(self, other: "Partition") -> bool:
        return all(self[i] >= other[i] for i in range(1, len(other) + 1))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions_of(n: int, max_part: int | None = None, max_len: int | None = None):
    """Yield all partitions of n with parts <= max_part and at most max_len
    parts (no bound when None), in decreasing lexicographic order of their
    parts.  The empty partition of 0 is yielded whatever the bounds; a
    negative bound yields no partition of n > 0."""
    cap = n if max_part is None else max_part
    room = n if max_len is None else max_len
    for parts in _decreasing_parts(n, cap, room):
        yield Partition(parts)


def _decreasing_parts(n: int, cap: int, room: int):
    """The parts of `partitions_of`, as tuples.  A first part v leaves n - v
    to at most room - 1 parts <= v, which exist iff n - v <= v * (room - 1)."""
    if n == 0:
        yield ()
    for v in range(min(cap, n), 0, -1):
        if n - v <= v * (room - 1):
            for rest in _decreasing_parts(n - v, v, room - 1):
                yield (v, *rest)


def partition_counts(max_len: int, max_size: int) -> list[list[int]]:
    """counts[l][s], the number of partitions of s with at most l parts, for
    0 <= l <= max_len and 0 <= s <= max_size, without building a partition.

    Row 0 counts only the empty partition of 0.  For l >= 1,
    p(s, <=l) = p(s, <=l-1) + p(s-l, <=l): a partition of s with at most l
    parts has fewer than l parts, or exactly l parts, and taking 1 from
    each of those l parts is a bijection onto the partitions of s - l with
    at most l parts (its inverse adds 1 to each of l parts, zeros padded).
    Row l is built in place from a copy of row l - 1 in increasing s, so
    counts[l][s - l] is already p(s-l, <=l) when p(s, <=l) reads it."""
    counts = [[1] + [0] * max_size]
    for length in range(1, max_len + 1):
        row = counts[-1][:]
        for size in range(length, max_size + 1):
            row[size] += row[size - length]
        counts.append(row)
    return counts


@lru_cache(maxsize=None)
def horizontal_strips(kappa: tuple[int, ...], outer: tuple[int, ...]):
    """(rho, |rho| - |kappa|) for each rho inside `outer` such that rho/kappa
    is a horizontal strip, in increasing order of rho; all three are tuples
    of one length, zeros padded.  rho/kappa is a horizontal strip when rho
    interlaces above kappa, kappa_i <= rho_i <= kappa_{i-1}, so each rho_i
    ranges over kappa_i..min(outer_i, kappa_{i-1}) (..outer_1 for the first)
    on its own.  Chains of strips are semistandard tableaux and GZ schemes.
    Memoized: the result is an immutable tuple, met many times."""
    strips = (((), 0),)
    for i, low in enumerate(kappa):
        high = min(outer[i], kappa[i - 1]) if i else outer[0]
        strips = tuple((rho + (v,), size + v - low)
                       for rho, size in strips for v in range(low, high + 1))
    return strips


def ends_at(kappa: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    """Whether outer/kappa is a horizontal strip, for kappa inside outer
    (tuples of one length): kappa_i >= outer_{i+1} in every row."""
    return all(k >= o for k, o in zip(kappa, outer[1:]))


def padded(lam: Partition, length: int) -> tuple[int, ...]:
    """The parts of `lam` with zeros appended up to `length` entries."""
    return lam.parts + (0,) * (length - len(lam))


def all_partitions_upto(n: int):
    """All partitions of 0..n."""
    for m in range(n + 1):
        yield from partitions_of(m)


class SkewShape:
    """The diagram of outer minus the diagram of inner (inner inside outer)."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition = Partition()):
        if not isinstance(outer, Partition):
            outer = Partition(outer)
        if not isinstance(inner, Partition):
            inner = Partition(inner)
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        self.outer = outer
        self.inner = inner

    def __eq__(self, other):
        if not isinstance(other, SkewShape):
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape({self.outer.parts}/{self.inner.parts})"
