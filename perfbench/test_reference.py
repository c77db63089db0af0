"""Tests of the independent reference checker (run: python3 -m pytest perfbench)."""
from reference import check_table, inverse_euler_power, partition_numbers, weights_per_degree


def test_pentagonal_partition_numbers():
    p = partition_numbers(100)
    assert p[:8] == (1, 1, 2, 3, 5, 7, 11, 15)
    assert p[100] == 190_569_292


def test_rank3_vacuum_degree1_is_the_adjoint():
    counts = weights_per_degree(3, 0, 1)
    string_fn = inverse_euler_power(2, 1)
    assert counts == (1, 6)
    assert sum(counts[d] * string_fn[1 - d] for d in range(2)) == 8


def _rank3_vacuum_q1():
    rows = [((-2, 1), [0, 1]), ((-1, -1), [0, 1]), ((-1, 2), [0, 1]),
            ((0, 0), [1, 2]), ((1, -2), [0, 1]), ((1, 1), [0, 1]),
            ((2, -1), [0, 1])]
    return {"n": 3, "k": 0, "delta": "0/1", "qmax": 1,
            "rows": [{"weight": list(w), "coeffs": c} for w, c in rows]}


def test_check_table_accepts_the_character():
    assert check_table(_rank3_vacuum_q1(), 3, 0, 1) is None


def test_check_table_finds_each_fault():
    doc = _rank3_vacuum_q1()
    doc["rows"][3]["coeffs"] = [1, 3]
    assert "coefficient" in check_table(doc, 3, 0, 1)
    doc = _rank3_vacuum_q1()
    del doc["rows"][0]
    assert "expected 6" in check_table(doc, 3, 0, 1)
    doc = _rank3_vacuum_q1()
    doc["rows"].append({"weight": [3, 1], "coeffs": [0, 1]})
    assert "class" in check_table(doc, 3, 0, 1)
    assert "header" in check_table(_rank3_vacuum_q1(), 3, 1, 1)
