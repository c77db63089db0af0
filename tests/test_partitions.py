"""Integer partitions and skew shapes."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itertools import product

from spinonchars import verify
from spinonchars.partitions import (
    all_partitions_upto,
    conjugate,
    contains,
    ends_at,
    horizontal_strips,
    padded,
    partition,
    partition_counts,
    partitions_of,
)
from spinonchars.symfunc import gz_schemes
from oracles import skew_size


def test_partition_normalizes_and_validates():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert type(partition([3, 2, 0, 0])) is tuple
    with pytest.raises(ValueError, match=r"parts not weakly decreasing: \(2, 3\)"):
        partition([2, 3])
    with pytest.raises(ValueError, match=r"parts must be positive: \(2, -1\)"):
        partition([2, -1])


def test_partition_refuses_non_integer_parts():
    """A float, string or bool part raises TypeError instead of being
    truncated (`int(2.7)` would be 2 and `int(True)` 1)."""
    for parts in ([2.7, True], [2, 1.0], [True], ["3"], [3, 0.0]):
        with pytest.raises(TypeError, match="parts must be ints"):
            partition(parts)


def test_conjugate_is_involution():
    for p in all_partitions_upto(7):
        assert conjugate(conjugate(p)) == p
        assert sum(conjugate(p)) == sum(p)


def test_conjugate_pinned():
    assert conjugate((3, 1)) == (2, 1, 1)


def test_partitions_of_counts():
    # p(0..9) = 1,1,2,3,5,7,11,15,22,30
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, count in enumerate(expected):
        assert len(list(partitions_of(n))) == count


def test_partitions_of_respects_bounds():
    for p in partitions_of(8, max_part=3, max_len=4):
        assert len(p) <= 4 and (not p or p[0] <= 3)


def _brute_partitions(n):
    """Every partition of n, in decreasing lexicographic order: the weakly
    decreasing ones among the 2^(n-1) compositions of n, each read off the
    set of cut points it is, sorted."""
    found = []
    for cuts in range(1 << max(n - 1, 0)):
        parts, start = [], 0
        for i in range(1, n):
            if cuts >> (i - 1) & 1:
                parts.append(i - start)
                start = i
        if n:
            parts.append(n - start)
        if all(a >= b for a, b in zip(parts, parts[1:])):
            found.append(tuple(parts))
    return sorted(found, reverse=True)


def test_partitions_of_matches_the_brute_force_sequence():
    """For n <= 15, every max_part in 0..n+1 or None and every max_len in
    -1..n+1 or None, the exact sequence, order included, is the brute-force
    one filtered by the bounds; each item is a tuple that `partition` takes
    as it is.  The empty
    partition of 0 is yielded whatever the bounds, also at max_len = 0 and
    -1; a negative max_len yields no partition of n > 0."""
    assert list(partitions_of(0, max_len=0)) == [()]
    for n in range(16):
        every = _brute_partitions(n)
        for max_part in (None, *range(n + 2)):
            for max_len in (None, *range(-1, n + 2)):
                got = list(partitions_of(n, max_part=max_part, max_len=max_len))
                expected = [p for p in every
                            if (max_len is None or not p or len(p) <= max_len)
                            and (max_part is None or not p or p[0] <= max_part)]
                assert got == expected, (n, max_part, max_len)
                for lam in got:
                    assert type(lam) is tuple and partition(lam) == lam


def test_containment():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 1, 1))
    assert not contains((3, 2), (4,))
    assert contains((1,), ()) and contains((), ())


def test_skew_shape_cells_and_columns():
    outer, inner = shape = ((2, 2), (1,))
    assert skew_size(shape) == 3
    oc = conjugate(outer)
    ic = padded(conjugate(inner), len(oc))
    assert [a - b for a, b in zip(oc, ic)] == [1, 2]  # column heights, left to right


def test_horizontal_strips_match_their_definition():
    """On every pair kappa inside outer with |outer| <= 7, padded to one
    length: `horizontal_strips` gives, in increasing order and with their
    sizes, exactly the tuples rho with kappa_i <= rho_i <=
    min(outer_i, kappa_{i-1}), found among all tuples below outer; and
    `ends_at` holds exactly when outer is one of them."""
    pairs = 0
    for outer in all_partitions_upto(7):
        for kappa in all_partitions_upto(sum(outer)):
            if not contains(outer, kappa):
                continue
            top, low = outer, padded(kappa, len(outer))
            above = top[:1] + low
            want = [(rho, sum(rho) - sum(low))
                    for rho in product(*(range(t + 1) for t in top))
                    if all(a <= r <= min(t, b) for a, r, t, b in zip(low, rho, top, above))]
            assert list(horizontal_strips(low, top)) == want, (kappa, outer)
            assert ends_at(low, top) == (top in [rho for rho, _ in want]), (kappa, outer)
            pairs += 1
    assert pairs == 449


def test_skew_shape_requires_containment():
    """A skew shape given from outside must have inner inside outer: the
    check of a `schur` case and `gz_schemes` refuse one that does not."""
    with pytest.raises(ValueError, match="not contained"):
        verify._schur_routes([1], [2], 2)
    with pytest.raises(ValueError, match="not contained"):
        gz_schemes([1], [2], 2, 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=0, max_size=5))
def test_sorted_lists_make_partitions(parts):
    p = partition(sorted(parts, reverse=True))
    assert sum(p) == sum(parts)
    assert len(conjugate(p)) == (max(parts) if parts else 0)


def test_partition_counts_match_the_enumeration():
    """`partition_counts` counts, by the recurrence alone, the partitions
    that `partitions_of` enumerates with at most l parts, for every l and
    size up to its bounds, past the size where the bound on parts binds."""
    for max_len, max_size in ((0, 6), (1, 5), (4, 12), (9, 9), (3, 0)):
        counts = partition_counts(max_len, max_size)
        assert len(counts) == max_len + 1
        for length in range(max_len + 1):
            assert counts[length] == [
                sum(1 for _ in partitions_of(size, max_len=length))
                for size in range(max_size + 1)], (max_len, max_size, length)
