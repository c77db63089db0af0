"""The memos of the verify checks: a case still runs its own gate, and no
result depends on what the memos already hold."""
import sys

import pytest

from spinonchars import strips, symfunc, verify


def _memos():
    """Every `lru_cache` of the package: each module-level function with a
    `cache_clear`."""
    return [obj for name, mod in sorted(sys.modules.items())
            if name.startswith("spinonchars.")
            for obj in vars(mod).values() if hasattr(obj, "cache_clear")]


def _records(report):
    return [(r["id"], r["params"], r["pass"], r["locus"]) for r in report["cases"]]


@pytest.mark.parametrize("outer, inner, n, N", [
    ([2, 1], [1, 1], 2, 1),        # l(inner) = 2 > N
    ([1, 1, 1, 1], [], 2, 1),      # l(outer) = 4 > N + n
    ([2, 1, 1, 1], [1], 2, 1),     # l(outer) = 4 > N + n
])
def test_gz_case_gates_n_with_the_memo_warm(outer, inner, n, N):
    """A memo warmed by the default `gz` suite, which checks each shape at
    an admitted N, holds the shape's check, and a case at an N that its
    bounds refuse still raises the error `gz_schemes` raises there."""
    verify.run_cases("gz", verify.build_suite("gz"))
    before = verify._gz_check.cache_info()
    assert verify._gz_case(outer, inner, n, N + 1) is None
    assert verify._gz_check.cache_info().hits == before.hits + 1
    with pytest.raises(ValueError) as expected:
        symfunc.gz_schemes(outer, inner, n, N)
    with pytest.raises(ValueError) as got:
        verify._gz_case(outer, inner, n, N)
    assert str(got.value) == str(expected.value)
    record, = verify.run_cases("gz", [verify.Case("c", {
        "outer": outer, "inner": inner, "n": n, "N": N}, verify._gz_case)])["cases"]
    assert (record["pass"], record["locus"]) == (False, f"exception: {expected.value}")


@pytest.mark.parametrize("rows", [[1, 1, 1], [2, 1, 1], [1, 1, 2], [3, 1, 1]])
def test_lr_case_gates_the_rank_with_the_memo_warm(rows):
    """A memo warmed by the default `schur` suite holds the rows' check from
    rank 3, and at rank 2, whose column bound the rows break, the case
    still raises the error `strips.from_rows` raises there."""
    verify.run_cases("schur", verify.build_suite("schur"))
    before = verify._lr_check.cache_info()
    assert verify._lr(3, rows) is None
    assert verify._lr_check.cache_info().hits == before.hits + 1
    with pytest.raises(ValueError) as expected:
        strips.from_rows(rows, 2)
    with pytest.raises(ValueError) as got:
        verify._lr(2, rows)
    assert str(got.value) == str(expected.value)


def test_every_case_is_the_same_with_each_memo_cleared_before_it():
    """Every (id, params, pass, locus) of `build_suite("all")` run in one
    pass, with the memos warming as the cases go, equals its record when
    every memo of the package is cleared before its case."""
    cases = verify.build_suite("all")
    warm = _records(verify.run_cases("all", cases))
    memos = _memos()
    assert {verify._gz_check, verify._lr_check} <= set(memos)
    cold = []
    for case in cases:
        for memo in memos:
            memo.cache_clear()
        cold += _records(verify.run_cases("all", [case]))
    cold.sort(key=lambda record: record[0])
    assert len(cold) == len(warm) == 2631
    assert cold == warm
