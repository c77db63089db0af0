"""Partitions and horizontal strips (English notation).

A partition is the tuple of its positive parts, weakly decreasing, and a
skew shape outer/inner is the pair (outer, inner) of partitions with inner
inside outer.  Tuples compare, hash and sort as the partitions they are; only
the walks and the rows of a GZ scheme pad them with zeros to one length."""
from __future__ import annotations

from functools import lru_cache


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


def partition(parts) -> tuple[int, ...]:
    """`parts` as a partition, the tuple of its positive parts: zero parts
    are dropped, and the rest must be weakly decreasing and positive.  A
    part that is not an `int` (a float, a string or a bool) raises
    TypeError.  A partition that comes from outside a walk (a payload, a
    case's params, a list given to a public function) is checked here; the
    walks build theirs valid."""
    parts = _require_ints(parts, "parts")
    if 0 in parts:
        parts = tuple(p for p in parts if p)
    for i in range(len(parts) - 1):
        if parts[i] < parts[i + 1]:
            raise ValueError(f"parts not weakly decreasing: {_shown(parts, i + 1)}")
    if parts and parts[-1] < 0:
        raise ValueError(f"parts must be positive: {_shown(parts, len(parts) - 1)}")
    return parts


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate partition: its part j counts the parts of lam >= j."""
    return tuple(sum(p >= j for p in lam) for j in range(1, lam[0] + 1)) if lam else ()


def contains(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Whether the diagram of mu lies inside that of lam."""
    return len(mu) <= len(lam) and all(a >= b for a, b in zip(lam, mu))


def partitions_of(n: int, max_part: int | None = None, max_len: int | None = None):
    """Yield all partitions of n with parts <= max_part and at most max_len
    parts (no bound when None), in decreasing lexicographic order of their
    parts.  The empty partition of 0 is yielded whatever the bounds; a
    negative bound yields no partition of n > 0."""
    cap = n if max_part is None else max_part
    room = n if max_len is None else max_len
    yield from _decreasing_parts(n, cap, room)


def _decreasing_parts(n: int, cap: int, room: int):
    """The partitions of `partitions_of`.  A first part v leaves n - v
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


def padded(lam: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The parts of `lam` with zeros appended up to `length` entries."""
    return lam + (0,) * (length - len(lam))


def all_partitions_upto(n: int):
    """All partitions of 0..n."""
    for m in range(n + 1):
        yield from partitions_of(m)

