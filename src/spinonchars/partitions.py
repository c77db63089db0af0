"""Partitions and skew shapes (English notation, 0-indexed cells)."""
from __future__ import annotations

from functools import total_ordering


def _require_ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple if every entry is an `int`; a float, string or
    bool raises TypeError instead of being truncated."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} must be ints, got {v!r}")
    return values


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
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be positive: {parts}")
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
    """Yield all partitions of n (optionally bounding part size and length)."""
    if max_part is None:
        max_part = n
    if max_len is None:
        max_len = n
    yield from _partitions(n, max_part, max_len, ())


def _partitions(remaining: int, cap: int, room: int, prefix: tuple):
    """Partitions of `remaining` with parts <= cap and at most `room` parts,
    each yielded after `prefix`.  A module-level generator, not a closure, so
    that no reference cycle outlives the iteration."""
    if remaining == 0:
        yield Partition(prefix)
        return
    if room == 0:
        return
    for p in range(min(cap, remaining), 0, -1):
        yield from _partitions(remaining - p, p, room - 1, prefix + (p,))


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

    def cells(self) -> list[tuple[int, int]]:
        """Cells (row, col), 0-indexed, row-major."""
        out = []
        for i in range(len(self.outer)):
            lo = self.inner[i + 1]
            for j in range(lo, self.outer.parts[i]):
                out.append((i, j))
        return out

    def size(self) -> int:
        return self.outer.size() - self.inner.size()

    def __eq__(self, other):
        if not isinstance(other, SkewShape):
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape({self.outer.parts}/{self.inner.parts})"
