"""Level-1 character tables: bosonic lattice sums, string functions, and the
fermionic spinon forms at rank two."""
from fractions import Fraction
from itertools import accumulate, permutations, product
from math import isqrt

import pytest

from spinonchars.affine import (
    CharacterTable,
    _alternating_cut,
    _decreasing_vectors,
    _spinon_a_values,
    bosonic_character,
    conformal_dimension,
    dominant_weight,
    exps_to_fw,
    orbit_size,
    scaled_weight_norm,
    sl2_fermionic_character,
    sl2_spinon_enumeration,
    spinon_string_function,
    verify_spinon_cut,
    weight_class,
)
from spinonchars.qseries import euler_inverse, inv_pochhammer, q_one, q_zero
from spinonchars.verify import small_norm_weights
from spinonchars.yangian import sl2_yangian_decomposition
from tables import hand_built


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
            assert scaled_weight_norm(coords, n) == k * (n - k)
            assert weight_class(coords, n) == k % n


def test_scaled_weight_norm_is_the_gram_sum():
    """n sum c_i^2 - (sum c_i)^2 is the inverse Cartan Gram sum
    sum_{i,j} m_i m_j (n min(i,j) - ij) on a box of weights."""
    for n in range(2, 7):
        for coords in product(range(-2, 3), repeat=n - 1):
            gram = sum(mi * mj * (n * min(i, j) - i * j)
                       for i, mi in enumerate(coords, start=1)
                       for j, mj in enumerate(coords, start=1))
            assert scaled_weight_norm(coords, n) == gram, (n, coords)
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        scaled_weight_norm((1,), 3)


def test_spinon_a_values_are_the_definition():
    """A_i = N/n + (lambda, eps_i), with (Lambda_j, eps_i) = [i <= j] - j/n,
    when every A_i is a non-negative integer, and None otherwise."""
    for n in range(2, 7):
        for coords in product(range(-1, 2), repeat=n - 1):
            pairings = [sum(m * ((i <= j) - Fraction(j, n))
                            for j, m in enumerate(coords, start=1))
                        for i in range(1, n + 1)]
            for n_spinons in range(2 * n):
                a_vals = [Fraction(n_spinons, n) + p for p in pairings]
                if any(a.denominator != 1 or a < 0 for a in a_vals):
                    a_vals = None
                assert _spinon_a_values(n, coords, n_spinons) == a_vals, (
                    n, coords, n_spinons)


def test_bosonic_table_pinned_small():
    table = bosonic_character(2, 0, 1)
    assert {w: tuple(r) for w, r in table.items()} == {
        (0,): (1, 1), (2,): (0, 1), (-2,): (0, 1),
    }


def test_bosonic_table_weight_reflection_symmetry():
    table = bosonic_character(2, 0, 8)
    for (w,), row in table.items():
        assert table.row([-w]) == list(row), w


def test_bosonic_vacuum_weight_zero_row_is_partition_numbers():
    # only c = (0,0) has weight zero, so the row is 1/(q)_inf exactly
    table = bosonic_character(2, 0, 6)
    assert table.row([0]) == [1, 1, 2, 3, 5, 7, 11]


def test_decreasing_vectors_match_the_box():
    """The Cauchy-Schwarz pruned search yields, in lexicographic order,
    exactly the weakly decreasing vectors of the box |c_i| <= isqrt(max_sq)
    with the given sum and squares summing to at most max_sq.  The bosonic
    points (total k, max_sq = k + 2 qmax) and the other sums and budgets,
    which include those of the opposite parity, where a bound off by one
    shows, are all checked."""
    for n in range(1, 6):
        points = {(k, k + 2 * qmax) for k in range(n) for qmax in range(5)}
        points |= {(total, max_sq) for total in range(-3, 4) for max_sq in range(9)}
        for total, max_sq in sorted(points):
            bound = isqrt(max_sq)
            box = [vec for vec in product(range(-bound, bound + 1), repeat=n)
                   if sum(vec) == total and sum(c * c for c in vec) <= max_sq
                   and all(a >= b for a, b in zip(vec, vec[1:]))]
            assert list(_decreasing_vectors(n, total, max_sq)) == box, (n, total, max_sq)
    assert list(_decreasing_vectors(1, 2, 4)) == [(2,)]
    assert list(_decreasing_vectors(1, 3, 4)) == []
    assert list(_decreasing_vectors(1, 2, 4, top=1)) == []
    assert list(_decreasing_vectors(0, 0, 4)) == []


def test_string_functions_are_graded_from_the_weight_norm():
    """The bosonic row at lambda is 1/(q)_inf^{n-1} shifted by |lambda|^2/2 -
    Delta_k, and the spinon cuts, graded from q^{|lambda|^2/2}, sum to the
    unshifted series."""
    qmax = 6
    for n in (2, 3, 4):
        closed = q_one(qmax)
        for _ in range(n - 1):
            closed = closed * euler_inverse(qmax)
        for k in range(n):
            table = bosonic_character(n, k, qmax)
            for coords in small_norm_weights(n, k, 1):
                shift = (Fraction(scaled_weight_norm(coords, n), 2 * n)
                         - conformal_dimension(n, k))
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


def test_small_norm_weights_box_holds_every_weight():
    """`small_norm_weights` finds every weight that a box of radius B + 2
    finds, for n <= 5 and max_extra <= 4, where each Dynkin label obeys
    c_i^2 <= 2|lambda|^2, so |c_i| <= B = isqrt(2 budget / n)."""
    for n in range(2, 6):
        budgets = {(k, extra): k * (n - k) + 2 * n * extra
                   for k in range(n) for extra in range(5)}
        radius = isqrt(2 * max(budgets.values()) // n) + 2
        brute = [(vec, weight_class(vec, n), scaled_weight_norm(vec, n))
                 for vec in product(range(-radius, radius + 1), repeat=n - 1)]
        for (k, extra), budget in budgets.items():
            expected = [vec for vec, cls, norm in brute if cls == k and norm <= budget]
            assert small_norm_weights(n, k, extra) == expected, (n, k, extra)
    # |7 Lambda_1|^2 / 2 - Delta_1 = 12 at n = 2: outside a fixed -6..6 box
    assert small_norm_weights(2, 1, 12)[-1] == (7,)


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


def _chain(indices, qmax):
    """1 / prod_i (q)_{indices[i]}, multiplied out factor by factor."""
    series = q_one(qmax)
    for i in indices:
        series = series * inv_pochhammer(i, qmax)
    return series


def _oracle_alternating(a_vals, qmax):
    """The alternating form at the A_i in the given order, each term built
    by an explicit chain of inverse Pochhammers."""
    alternating = q_zero(qmax)
    for m in range(min(a_vals) + 1):
        term = _chain([m, *(a - m for a in a_vals)], qmax).shift(m * (m - 1) // 2)
        alternating = alternating + term * (-1) ** m
    return alternating


def _oracle_cuts(n, k, coords, n_spinons, qmax):
    """Both forms of the N-spinon cut, each term built by an explicit chain
    of inverse Pochhammers: (alternating, multisum)."""
    alternating, multisum = q_zero(qmax), q_zero(qmax)
    a_vals = _spinon_a_values(n, coords, n_spinons)
    if n_spinons % n != k % n or a_vals is None:
        return alternating, multisum
    alternating = _oracle_alternating(a_vals, qmax)
    # m_1..m_{n-2} with S_j = m_1 + ... + m_j <= N; the term is
    # q^{sum_j (A_j - S_{j-1}) m_j + (A_{n-1} - S_{n-2})(A_n - S_{n-2})}
    # / (prod_j (q)_{A_j - S_{j-1}} (q)_{m_j} (q)_{A_{n-1}-S_{n-2}} (q)_{A_n-S_{n-2}})
    for ms in product(range(n_spinons + 1), repeat=n - 2):
        sums = [0, *accumulate(ms)]
        if sums[-1] > n_spinons:
            continue
        subs = [a_vals[j] - sums[j] for j in range(n - 2)]
        last = [a_vals[n - 2] - sums[-1], a_vals[n - 1] - sums[-1]]
        if min(subs + last) < 0:
            continue
        exp = sum(s * m for s, m in zip(subs, ms)) + last[0] * last[1]
        if exp <= qmax:
            multisum = multisum + _chain(subs + list(ms) + last, qmax).shift(exp)
    return alternating, multisum


def test_spinon_forms_match_the_explicit_chain_oracle():
    """The cached denominators of both forms give the cuts that multiplying
    out each term's inverse Pochhammers gives."""
    qmax = 10
    nonzero = 0
    for n in (2, 3, 4):
        for k in range(n):
            for coords in small_norm_weights(n, k, 1):
                for n_spinons in range(3 * n + 1):
                    alternating, multisum = _oracle_cuts(n, k, coords, n_spinons, qmax)
                    nonzero += not alternating.is_zero()
                    case = (n, k, coords, n_spinons)
                    assert spinon_string_function(
                        n, k, coords, n_spinons, "alternating", qmax) == alternating, case
                    assert spinon_string_function(
                        n, k, coords, n_spinons, "multisum", qmax) == multisum, case
    assert nonzero > 100


def test_alternating_cut_is_constant_on_weyl_orbits():
    """The premise of the orbit memo of `_alternating_cut`.  For n = 2..5,
    each orbit of a vector c with entries in -1..1 summing to k, and
    N = k + jn (j = 0..2): at every permutation of c, a Weyl image of the
    weight exps_to_fw(c) with its A_i = j + c_i permuted alike, the
    alternating form built term by term at the ordered A_i, without the
    memo, is one series; the multisum form at those ordered A_i equals it;
    and `spinon_string_function` returns it with the memo cold and warm."""
    qmax = 6
    moved = 0
    for n in range(2, 6):
        for k in range(n):
            reps = {tuple(sorted(c)) for c in product((-1, 0, 1), repeat=n)
                    if sum(c) == k}
            for rep in sorted(reps):
                images = sorted(set(permutations(rep)))
                for j in range(3):
                    n_spinons = k + j * n
                    cuts = set()
                    for vec in images:
                        coords = exps_to_fw(vec)
                        a_vals = _spinon_a_values(n, coords, n_spinons)
                        if min(vec) + j < 0:
                            assert a_vals is None
                            continue
                        assert a_vals == [j + c for c in vec]
                        cut = _oracle_alternating(a_vals, qmax)
                        cuts.add(cut)
                        case = (n, k, vec, n_spinons)
                        assert spinon_string_function(
                            n, k, coords, n_spinons, "multisum", qmax) == cut, case
                        _alternating_cut.cache_clear()
                        for _ in ("cold", "warm"):
                            assert spinon_string_function(
                                n, k, coords, n_spinons, "alternating", qmax) == cut, case
                    assert len(cuts) <= 1, (n, k, rep, n_spinons)
                    if len(images) > 1 and cuts and not cuts.pop().is_zero():
                        moved += 1
    assert moved > 20


def test_spinon_cut_verdicts_do_not_depend_on_the_memo():
    """`verify_spinon_cut` gives each weight of the spinon-cut census, at
    ranks 2-5 to q^8, the same verdict with the memo of `_alternating_cut`
    cleared before the call as with the memo warm from every other weight."""
    census = [(n, k, coords) for n in range(2, 6) for k in range(n)
              for coords in small_norm_weights(n, k)]
    cold = []
    for n, k, coords in census:
        _alternating_cut.cache_clear()
        cold.append(verify_spinon_cut(n, k, coords, 8))
    warm = [verify_spinon_cut(n, k, coords, 8) for n, k, coords in census]
    assert cold == warm
    assert all(cold)


def test_spinon_cut_reconstructs_string_functions():
    for n in (2, 3):
        for k in range(n):
            for coords in small_norm_weights(n, k, max_extra=2):
                assert verify_spinon_cut(n, k, coords, 6), (n, k, coords)


def test_spinon_cuts_start_at_the_proved_degree():
    """On the spinon-cut census (ranks 2-4, |lambda|^2/2 - Delta_k <= 2, to
    q^8), each nonzero N-spinon cut starts at a degree d with
    2n(n-1) d >= N^2 - (n-1) n|lambda|^2, the bound `verify_spinon_cut`
    stops at.  At some weights the last N inside the bound has a nonzero
    cut, so a sum that stopped one N earlier would miss it."""
    qmax = 8
    last_nonzero = 0
    for n in (2, 3, 4):
        for k in range(n):
            for coords in small_norm_weights(n, k):
                norm = scaled_weight_norm(coords, n)
                bound = (n - 1) * (2 * n * qmax + norm)
                for n_spinons in range(k, isqrt(bound) + 2 * n + 1, n):
                    cut = spinon_string_function(
                        n, k, coords, n_spinons, "alternating", qmax)
                    if cut.is_zero():
                        continue
                    lowest = next(d for d, c in enumerate(cut.coeffs) if c)
                    floor = n_spinons * n_spinons - (n - 1) * norm
                    assert 2 * n * (n - 1) * lowest >= floor, (
                        n, k, coords, n_spinons, lowest)
                    last_nonzero += (n_spinons + n) ** 2 > bound
    assert last_nonzero > 0


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
    table = hand_built(2, 0, 2, [((1,), (1, 0, 0))])  # odd weight in the even class
    with pytest.raises(AssertionError, match=r"weight \(1,\) not in class 0"):
        table.validate()


def test_table_validation_rejects_a_negative_coefficient():
    table = hand_built(3, 1, 2, [((-1, 1), (1, 0, -1)), ((0, 2), (0, 3, 0))])
    # (-1, 1) is in the orbit of (1, 0), which names the row
    with pytest.raises(AssertionError, match=r"negative multiplicity at weight \(1, 0\)"):
        table.validate()
    table = hand_built(3, 1, 2, [((-1, 1), (1, 0, 0)), ((0, 2), (0, 3, 0))])
    assert table.validate() is table


def test_bosonic_rows_are_shared_by_degree():
    """Every weight of one degree holds the same row object, so the 2 691
    rows of (6, 0, 8) are at most qmax + 1 objects."""
    table = bosonic_character(6, 0, 8)
    pairs = table.items()
    assert len(pairs) == 2691
    assert len({id(row) for _, row in pairs}) <= 8 + 1


def test_table_row_rejects_a_weight_of_the_wrong_length():
    """`row`, like `from_weights`, refuses a weight of the wrong length
    instead of reading it as a weight the table does not hold."""
    table = bosonic_character(3, 0, 2)
    assert table.row([0, 0]) == [1, 2, 5]
    assert table.row([1, 0]) == [0, 0, 0]
    for weight in ([0], [0, 0, 0], ()):
        with pytest.raises(ValueError, match="wrong length for n=3"):
            table.row(weight)


def test_table_first_difference_locates_discrepancy():
    a = hand_built(2, 0, 2, [((0,), (0, 1, 0))])
    b = hand_built(2, 0, 2, [((0,), (0, 2, 0))])
    assert a.first_difference(b) == ((0,), 1, 1, 2)
    b2 = hand_built(2, 0, 2, [((0,), (0, 1, 0))])
    assert a.first_difference(b2) is None


def _first_difference_by_weight(a, b):
    """`CharacterTable.first_difference` as it reads a table kept one row
    per weight: the weights of both expansions in sorted order, the first
    differing degree at the first weight whose rows differ."""
    rows_a, rows_b = dict(a.items()), dict(b.items())
    zeros = [0] * (a.qmax + 1)
    for w in sorted(rows_a.keys() | rows_b.keys()):
        x, y = list(rows_a.get(w, zeros)), list(rows_b.get(w, zeros))
        for d in range(a.qmax + 1):
            if x[d] != y[d]:
                return (w, d, x[d], y[d])
    return None


def test_orbit_expansion_matches_the_lattice_sum():
    """`items` expands the bosonic orbits to exactly the weights of the
    full lattice sum, the distinct permutations of each weakly decreasing
    vector, in sorted order, each holding the closed series shifted to its
    own degree (sum c_i^2 - k)/2."""
    for n, k, qmax in ((2, 0, 9), (2, 1, 8), (3, 1, 6), (4, 2, 5), (5, 0, 5),
                       (6, 3, 4), (7, 2, 3), (8, 0, 4), (8, 5, 2)):
        closed = q_one(qmax)
        for _ in range(n - 1):
            closed = closed * euler_inverse(qmax)
        degree = {exps_to_fw(p): (sum(x * x for x in c) - k) // 2
                  for c in _decreasing_vectors(n, k, k + 2 * qmax)
                  for p in set(permutations(c))}
        pairs = bosonic_character(n, k, qmax).items()
        assert [w for w, _ in pairs] == sorted(degree), (n, k, qmax)
        for w, row in pairs:
            assert list(row) == list(closed.shift(degree[w]).coeffs), (n, k, qmax, w)


def test_orbits_are_the_permutations_of_c():
    """The orbit of the weight of c is the set of weights of the
    permutations of c: `dominant_weight` maps each to the one dominant
    weight among them, `orbit_size` counts them, and `items` expands a
    one-orbit table to exactly them."""
    for n in range(1, 6):
        for c in product(range(3), repeat=n):
            orbit = sorted({exps_to_fw(p) for p in permutations(c)})
            key = dominant_weight(exps_to_fw(c))
            assert key in orbit and all(m >= 0 for m in key), c
            assert {dominant_weight(w) for w in orbit} == {key}, c
            assert orbit_size(key) == len(orbit), c
            table = hand_built(n, weight_class(key, n), 0, [(orbit[-1], [1])])
            assert [w for w, _ in table.items()] == orbit, c


def test_from_weights_refuses_a_table_that_is_not_w_invariant():
    """The fold keeps one row per orbit and drops zero rows, and it raises
    when two weights of an orbit disagree, a missing weight counting as a
    zero row."""
    table = CharacterTable.from_weights(
        2, 0, 1, {(2,): [0, 1], (0,): (1, 1), (-2,): [0, 1], (4,): [0, 0]})
    assert table.orbits == {(2,): [0, 1], (0,): [1, 1]}
    assert table == bosonic_character(2, 0, 1)
    with pytest.raises(AssertionError, match=r"not W-invariant: weights \(-2,\) and \(2,\)"):
        CharacterTable.from_weights(2, 0, 1, {(2,): [0, 1], (0,): [1, 1], (-2,): [0, 2]})
    with pytest.raises(AssertionError, match=r"orbit of \(2,\) holds a row at 1 of its 2"):
        CharacterTable.from_weights(2, 0, 1, {(0,): [1, 1], (-2,): [0, 1]})
    with pytest.raises(AssertionError, match=r"orbit of \(1, 0\) holds a row at 2 of its 3"):
        CharacterTable.from_weights(3, 1, 0, {(1, 0): [1], (0, -1): [1]})
    with pytest.raises(ValueError, match="wrong length for n=3"):
        CharacterTable.from_weights(3, 1, 0, {(1,): [1]})


def test_first_difference_names_the_smallest_weight_off_the_dominant_chamber():
    """Tables that differ in two orbits, at weights off the dominant
    chamber: the first difference is at the smallest differing weight in
    sorted order, (-4, 2) in the orbit of (2, 2), although the other orbit,
    of (0, 3), has the smaller dominant weight; its degree is the first one
    at which that weight differs.  It agrees with the comparison weight by
    weight, also when one table lacks an orbit."""
    a = bosonic_character(3, 0, 4)
    changed = []
    for weight, degree, coeff in (((-2, 4), 4, 1), ((3, -3), 2, 7)):
        row = a.row(weight)
        row[degree] += coeff
        changed.append((weight, row))
    b = hand_built(3, 0, 4, [*a.orbits.items(), *changed])
    x = a.row((2, 2))[4]
    assert a.first_difference(b) == ((-4, 2), 4, x, x + 1)
    assert b.first_difference(a) == ((-4, 2), 4, x + 1, x)
    assert _first_difference_by_weight(a, b) == ((-4, 2), 4, x, x + 1)
    c = CharacterTable(3, 0, 4)
    c.orbits = {w: row for w, row in a.orbits.items() if w != (1, 1)}
    assert a.first_difference(c) == _first_difference_by_weight(a, c) == (
        (-2, 1), 1, 1, 0)
    assert a.first_difference(bosonic_character(3, 0, 4)) is None


def test_row_reads_every_weight_through_its_orbit():
    """`row` answers at weights off the dominant chamber with their orbit's
    row, and refuses a weight of the wrong length."""
    table = bosonic_character(3, 0, 4)
    pairs = table.items()
    assert any(min(w) < 0 for w, _ in pairs)
    for w, row in pairs:
        assert table.row(w) == list(row) == table.row(dominant_weight(w)), w
    for weight in ([1], [2, -1, 0]):
        with pytest.raises(ValueError, match="wrong length for n=3"):
            table.row(weight)
