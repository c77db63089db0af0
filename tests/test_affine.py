"""Level-1 character tables: bosonic lattice sums, string functions, and the
fermionic spinon forms at rank two."""
from fractions import Fraction

import pytest

from spinonchars.affine import (
    CharacterTable,
    bosonic_character,
    conformal_dimension,
    sl2_fermionic_character,
    sl2_spinon_enumeration,
    spinon_string_function,
    verify_spinon_cut,
    weight_class,
    weight_norm,
)
from spinonchars.qseries import euler_inverse, q_zero
from spinonchars.verify import small_norm_weights
from spinonchars.yangian import sl2_yangian_decomposition


def test_conformal_dimensions_pinned():
    assert conformal_dimension(2, 0) == 0
    assert conformal_dimension(2, 1) == Fraction(1, 4)
    assert conformal_dimension(3, 1) == Fraction(1, 3)
    assert conformal_dimension(4, 2) == Fraction(1, 2)


def test_weight_norm_examples():
    # fundamental weights: |w_k|^2 = k(n-k)/n
    for n in (2, 3, 4):
        for k in range(1, n):
            coords = [0] * (n - 1)
            coords[k - 1] = 1
            assert weight_norm(coords, n) == Fraction(k * (n - k), n)
            assert weight_class(coords, n) == k % n


def test_bosonic_table_pinned_small():
    table = bosonic_character(2, 0, 1)
    assert {w: tuple(r) for w, r in table.rows.items()} == {
        (0,): (1, 1), (2,): (0, 1), (-2,): (0, 1),
    }


def test_bosonic_table_weight_reflection_symmetry():
    table = bosonic_character(2, 0, 8)
    for (w,), row in table.rows.items():
        assert table.row([-w]) == row, w


def test_bosonic_vacuum_weight_zero_row_is_partition_numbers():
    # only c = (0,0) has weight zero, so the row is 1/(q)_inf exactly
    table = bosonic_character(2, 0, 6)
    assert table.row([0]) == [1, 1, 2, 3, 5, 7, 11]


def test_string_functions_are_graded_from_the_weight_norm():
    """The bosonic row at lambda is 1/(q)_inf^{n-1} shifted by |lambda|^2/2 -
    Delta_k, and the spinon cuts, graded from q^{|lambda|^2/2}, sum to the
    unshifted series."""
    qmax = 6
    for n in (2, 3, 4):
        closed = euler_inverse(qmax) ** (n - 1)
        for k in range(n):
            table = bosonic_character(n, k, qmax)
            for coords in small_norm_weights(n, k, 1):
                shift = weight_norm(coords, n) / 2 - conformal_dimension(n, k)
                assert shift.denominator == 1 and shift >= 0, (n, k, coords)
                assert table.row(coords) == list(closed.shift(int(shift)).coeffs), (
                    n, k, coords)
                # the cuts are non-negative, so a generous range of N can
                # only add terms that a wrong grading would show
                cuts = q_zero(qmax)
                for n_spinons in range(k, n * (qmax + n + 6) + 1, n):
                    cuts = cuts + spinon_string_function(
                        n, k, coords, n_spinons, "alternating", qmax)
                assert cuts == closed, (n, k, coords)


def test_spinon_alternating_pinned():
    """Rank 2, weight 0, two spinons: q + 2q^2 + 3q^3 + ..."""
    s = spinon_string_function(2, 0, (0,), 2, "alternating", 8)
    assert s.coeffs == (0, 1, 2, 3, 4, 5, 6, 7, 8)


def test_spinon_forms_agree():
    for n in (2, 3, 4):
        for k in range(n):
            for coords in small_norm_weights(n, k, max_extra=1):
                for n_spinons in range(k, 3 * n + 1, n):
                    a = spinon_string_function(n, k, coords, n_spinons,
                                               "alternating", 6)
                    b = spinon_string_function(n, k, coords, n_spinons,
                                               "multisum", 6)
                    assert a == b, (n, k, coords, n_spinons)


def test_spinon_cut_reconstructs_string_functions():
    for n in (2, 3):
        for k in range(n):
            for coords in small_norm_weights(n, k, max_extra=2):
                assert verify_spinon_cut(n, k, coords, 6), (n, k, coords)


def test_spinon_number_mismatch_gives_zero():
    # N not matching the weight class cannot host any spinon configuration
    s = spinon_string_function(2, 0, (0,), 1, "alternating", 6)
    assert s.is_zero()


def test_sl2_four_routes_identical():
    for k in (0, 1):
        bos = bosonic_character(2, k, 8)
        assert bos == sl2_fermionic_character(k, "root", 8)
        assert bos == sl2_fermionic_character(k, "spinon", 8)
        assert bos == sl2_spinon_enumeration(k, 8)


def test_sl2_fermionic_forms_match_bosonic_past_the_derived_bound():
    # the root form's m-bound is derived from qmax, and the spinon routes stop
    # their N loop at the first grade past qmax; each qmax checks both
    for k in (0, 1):
        for qmax in range(41):
            bos = bosonic_character(2, k, qmax)
            for form in ("root", "spinon"):
                assert sl2_fermionic_character(k, form, qmax) == bos, (k, form, qmax)
            if qmax <= 16:
                assert sl2_spinon_enumeration(k, qmax) == bos, ("enum", k, qmax)
                assert sl2_yangian_decomposition(k, qmax) == bos, ("yangian", k, qmax)


def test_table_validation_rejects_wrong_class():
    table = CharacterTable(2, 0, 2)
    table.add((1,), 0, 1)  # odd weight in the even class
    with pytest.raises(AssertionError):
        table.validate()


def test_table_first_difference_locates_discrepancy():
    a = CharacterTable(2, 0, 2)
    b = CharacterTable(2, 0, 2)
    a.add((0,), 1, 1)
    b.add((0,), 1, 2)
    assert a.first_difference(b) == ((0,), 1, 1, 2)
    b2 = CharacterTable(2, 0, 2)
    b2.add((0,), 1, 1)
    assert a.first_difference(b2) is None
