"""Symmetric polynomials: skew Schur routes, expansion coefficients, and the
q-deformed binomial generating polynomials."""
import gc
import sys
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinonchars.affine import (
    bosonic_character,
    sl2_spinon_enumeration,
    spinon_string_function,
    verify_spinon_cut,
)
from spinonchars.partitions import all_partitions_upto, conjugate, partitions_of
from spinonchars.strips import (
    enumerate_border_strips,
    motif,
    rapidity,
    rapidity_to_strip,
    shape,
    strip_to_rapidity,
    to_record,
    transpose,
)
from spinonchars.symfunc import (
    SymPoly,
    _descent_table,
    _jt_det,
    _sst_layer,
    complete,
    elementary,
    gz_schemes,
    ribbon_expansion,
    rogers_szego,
    rs_generating_check,
    schur_skew,
    skew_kostka,
    weight_projection,
)
from spinonchars.verify import _ribbon_locus, _sub_partitions, build_suite, small_norm_weights
from spinonchars.yangian import sl2_yangian_decomposition, yangian_decomposition
from oracles import (
    determinant,
    eval_ones,
    jacobi_trudi_matrix,
    monomial_dicts,
    skew_shapes,
    sl2_strip_product,
    stabilization_check,
    tuple_sum_of_products,
)


def test_three_schur_routes_agree_small_census():
    for lam in all_partitions_upto(5):
        for mu in _sub_partitions(lam):
            shape = (lam, mu)
            for nvars in (1, 2, 3):
                a = schur_skew(shape, nvars, "jt_h")
                b = schur_skew(shape, nvars, "jt_e")
                c = schur_skew(shape, nvars, "sst")
                assert a == b == c, (lam, mu, nvars)


@settings(max_examples=60, deadline=None)
@given(skew_shapes(12), st.integers(1, 5))
def test_three_schur_routes_agree_past_the_census(shape, nvars):
    """The determinant routes and the horizontal-strip walk of `sst` on skew
    shapes of outer size <= 12 in <= 5 variables, past the size <= 6, <= 4
    variables of the `schur` suite."""
    want = schur_skew(shape, nvars, "jt_h")
    assert schur_skew(shape, nvars, "jt_e") == want
    assert schur_skew(shape, nvars, "sst") == want


def test_sst_layers_are_shared_across_variable_counts():
    """Every memo of the package is cleared, and the shapes of the 920
    `schur[` cases of the `schur` suite run from the most variables down, so
    each case at nvars = v reads layer v - 1 that a case with more variables
    built.  Each result equals the one of a warm run in suite order and both
    determinant routes, and every layer of a shape was built once.  A
    caller that changes a returned polynomial changes no later result."""
    cases = [((tuple(c.params["outer"]), tuple(c.params["inner"])), c.params["nvars"])
             for c in build_suite("schur") if c.id.startswith("schur[")]
    assert len(cases) == 920
    warm = {case: schur_skew(*case, "sst") for case in cases}
    for name, module in list(sys.modules.items()):
        if name.startswith("spinonchars."):
            for memo in vars(module).values():
                if hasattr(memo, "cache_clear"):
                    memo.cache_clear()
    for shape, nvars in sorted(cases, key=lambda case: -case[1]):
        got = schur_skew(shape, nvars, "sst")
        assert got == warm[shape, nvars], (shape, nvars)
        assert got == schur_skew(shape, nvars, "jt_h") == schur_skew(shape, nvars, "jt_e"), (
            shape, nvars)
    assert _sst_layer.cache_info().misses == 4 * len({shape for shape, _ in cases})
    shape = ((4, 3, 1), (2,))
    for nvars in range(1, 5):
        returned = schur_skew(shape, nvars, "sst")
        returned.terms.clear()
        returned.terms[1] = 7
    for nvars in range(1, 6):
        assert schur_skew(shape, nvars, "sst") == schur_skew(shape, nvars, "jt_h"), nvars


@st.composite
def _polynomial_pairs(draw) -> tuple:
    """(nvars, a, b): two dicts of `monomial_dicts` in 1..6 variables whose
    degrees sum to at most 255."""
    nvars = draw(st.integers(1, 6))
    degree = draw(st.integers(0, 255))
    return (nvars, draw(monomial_dicts(nvars, degree)),
            draw(monomial_dicts(nvars, draw(st.integers(0, 255 - degree)))))


@settings(max_examples=100, deadline=None)
@given(_polynomial_pairs(), st.integers(-3, 3) | st.integers(-2**70, 2**70))
@example((1, {(200,): 1, (3,): -2}, {(55,): 3, (0,): 1}), 2)
@example((3, {(100, 50, 105): 2, (0, 0, 0): 1}, {(0, 0, 0): -1}), 0)
def test_packed_kernel_matches_the_tuple_keyed_oracle(pair, k):
    """`+`, `-`, `*` and `* int` of polynomials in 1..6 variables, read back
    through `monomials()`, against tuple-keyed arithmetic, up to products
    of degree 255: x_1^200 * x_1^55 fills one byte exactly."""
    nvars, a, b = pair
    one = {(0,) * nvars: 1}
    p, q = SymPoly(nvars, a), SymPoly(nvars, b)
    assert dict(p.monomials()) == {e: c for e, c in a.items() if c}
    assert dict((p + q).monomials()) == tuple_sum_of_products([(1, a, one), (1, b, one)])
    assert dict((p - q).monomials()) == tuple_sum_of_products([(1, a, one), (-1, b, one)])
    assert dict((p * q).monomials()) == tuple_sum_of_products([(1, a, b)])
    assert dict((p * k).monomials()) == tuple_sum_of_products([(k, a, one)])
    assert k * p == p * k


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 255))
def test_packed_kernel_refuses_a_degree_past_255(nvars, degree):
    """A product whose factors' degrees sum to 256 raises ValueError before
    a byte could carry, even where no one exponent would pass 255, and so
    does an exponent of 256 (or -1) given to the constructor, a complete
    symmetric polynomial h_256 and a skew shape of 256 cells."""
    rest = (0,) * (nvars - 1)
    p = SymPoly(nvars, {(degree, *rest): 1})
    q = SymPoly(nvars, {(*rest, 256 - degree): 1})
    with pytest.raises(ValueError):
        p * q
    for exps in ((256, *rest), (-1, *rest)):
        with pytest.raises(ValueError):
            SymPoly(nvars, {exps: 1})
    with pytest.raises(ValueError):
        complete(256, nvars)
    for method in ("jt_h", "jt_e", "sst"):
        with pytest.raises(ValueError):
            schur_skew(((200, 56), ()), nvars, method)
    assert dict((p * SymPoly(nvars, {(255 - degree, *rest): 1})).monomials()) == {
        (255, *rest): 1}


def test_shared_minors_equal_the_per_matrix_determinant():
    """Both determinant routes against the cofactor expansion of the
    Jacobi-Trudi matrix written out entry by entry, on every skew shape of
    outer size 7 in 1-5 variables (past the size <= 6, <= 4 variables of the
    `schur` suite).  The pairs run once in order from an empty memo of
    minors and once in reverse order, so no result depends on which minors
    the memo already held."""
    pairs = [((lam, mu), nvars, method)
             for lam in partitions_of(7) for mu in _sub_partitions(lam)
             for nvars in range(1, 6) for method in ("jt_h", "jt_e")]
    assert len(pairs) == 2 * 1095
    expected = [determinant(jacobi_trudi_matrix(shape, nvars, method), nvars)
                for shape, nvars, method in pairs]
    _jt_det.cache_clear()
    for (shape, nvars, method), want in zip(pairs, expected):
        assert schur_skew(shape, nvars, method) == want, (shape, nvars, method)
    _jt_det.cache_clear()
    for (shape, nvars, method), want in zip(pairs[::-1], expected[::-1]):
        assert schur_skew(shape, nvars, method) == want, (shape, nvars, method)


def test_schur_straight_shapes_pinned():
    # s_(2,1) in 3 variables has 8 monomial terms counted with multiplicity
    s = schur_skew(((2, 1), ()), 3, "jt_h")
    assert eval_ones(s) == 8
    # s_(1,1) = e_2
    assert schur_skew(((1, 1), ()), 3, "jt_h") == elementary(2, 3)
    # s_(2) = h_2
    assert schur_skew(((2,), ()), 3, "jt_h") == complete(2, 3)


def test_ribbon_expansion_pinned():
    pinned = {
        (1, 2): {(2, 1): 1},
        (2, 2): {(3, 1): 1, (2, 2): 1},
        (1, 2, 1): {(2, 2): 1, (2, 1, 1): 1},
        (3, 1): {(3, 1): 1},
        (): {(): 1},
    }
    for rows, expected in pinned.items():
        got = ribbon_expansion(rows)
        assert got == expected, rows


def test_ribbon_expansion_passes_the_dominant_monomial_check():
    """Ranks 2-4 at size <= 7, in both orientations of the rows."""
    for n in (2, 3, 4):
        for size in range(8):
            for cols in enumerate_border_strips(n, size, reduced=False):
                coeffs = ribbon_expansion(transpose(cols))
                assert ribbon_expansion(transpose(cols)[::-1]) == coeffs, cols
                assert _ribbon_locus(cols, coeffs) is None, cols


def test_ribbon_locus_catches_every_single_coefficient_error():
    """One coefficient off by one, one missing shape added, or a shape of the
    wrong size added: each gives a locus."""
    for n in (2, 3):
        for size in range(7):
            for cols in enumerate_border_strips(n, size, reduced=False):
                coeffs = ribbon_expansion(transpose(cols))
                wrong = [{**coeffs, nu: coeffs[nu] + d} for nu in coeffs for d in (1, -1)]
                wrong += [{**coeffs, nu: 1}
                          for nu in partitions_of(size) if nu not in coeffs]
                wrong.append({**coeffs, (size + 1,): 1})  # wrong size
                for bad in wrong:
                    assert _ribbon_locus(cols, bad) is not None, (cols, bad)


def test_skew_kostka_is_the_monomial_coefficient():
    """skew_kostka against the Jacobi-Trudi polynomial in three variables,
    for every content with at most three parts."""
    for lam in all_partitions_upto(5):
        for mu in _sub_partitions(lam):
            monomials = dict(schur_skew((lam, mu), 3, "jt_h").monomials())
            for content in partitions_of(sum(lam) - sum(mu), max_len=3):
                exps = content + (0,) * (3 - len(content))
                assert skew_kostka(lam, mu, content) == monomials.get(exps, 0), (
                    lam, mu, content)
    # a content of another size fills no tableau
    assert skew_kostka((), (), (1,)) == 0
    assert skew_kostka((2,), (), (3,)) == 0


def _hook_count(nu):
    """f^nu by the hook length formula."""
    conj = conjugate(nu)
    hooks = (nu[i] - j + conj[j] - i - 1 for i in range(len(nu)) for j in range(nu[i]))
    return factorial(sum(nu)) // prod(hooks)


def test_descent_table_counts_every_standard_tableau():
    for size in range(9):
        totals: dict = {}
        for by_shape in _descent_table(size).values():
            for nu, d in by_shape.items():
                totals[nu] = totals.get(nu, 0) + d
        assert totals == {nu: _hook_count(nu) for nu in partitions_of(size)}, size


def test_schur_helpers_leave_no_cyclic_garbage():
    """Tableau fillings, partition generators and the
    recursive enumerations and sums of the other layers, the verifier's case
    builders among them, are freed by reference counting, not left for the
    collector.  The minors of both determinant routes stay in a memo for the
    life of the process, and neither filling nor reading it may create a
    reference cycle.  The objects alive before the calls are frozen, so that
    each collection walks only what a call left."""
    shape = ((4, 3, 1), (2,))
    calls = {
        "schur_skew jt_h": lambda: schur_skew(shape, 3, "jt_h"),
        "schur_skew jt_e": lambda: schur_skew(shape, 3, "jt_e"),
        "schur_skew sst": lambda: schur_skew(shape, 3, "sst"),
        "ribbon_expansion": lambda: ribbon_expansion([3, 2, 4]),
        "skew_kostka": lambda: skew_kostka((4, 3, 1), (2,), (2, 2, 2)),
        "_ribbon_locus": lambda cols=(2, 1, 3): _ribbon_locus(
            cols, ribbon_expansion(transpose(cols))),
        "partitions_of": lambda: list(partitions_of(8)),
        "enumerate_border_strips": lambda: enumerate_border_strips(3, 5, True),
        "strip_to_rapidity": lambda: strip_to_rapidity((2, 1, 3), 4),
        "rapidity": lambda: rapidity(3, 1, [1, 3, 4], 7),
        "motif": lambda: motif("0110110110|", 3),
        "to_record": lambda: to_record("0110|", 4),
        "rapidity_to_strip": lambda: rapidity_to_strip("0110|", 4),
        "gz_schemes": lambda: gz_schemes((3, 2, 1), (1,), 3, 2),
        "rogers_szego": lambda: rogers_szego(3, 3, 4),
        "rs_generating_check": lambda: rs_generating_check(3, 3, 4),
        "bosonic_character": lambda: bosonic_character(3, 1, 4),
        "spinon_string_function multisum": lambda: spinon_string_function(
            3, 0, (0, 0), 3, "multisum", 6),
        "spinon_string_function multisum n=4": lambda: spinon_string_function(
            4, 0, (0, 0, 0), 8, "multisum", 9),
        "spinon_string_function alternating": lambda: spinon_string_function(
            4, 0, (0, 0, 0), 8, "alternating", 9),
        "verify_spinon_cut": lambda: verify_spinon_cut(3, 1, (1, 0), 8),
        "sl2_spinon_enumeration": lambda: sl2_spinon_enumeration(1, 6),
        "sl2_yangian_decomposition": lambda: sl2_yangian_decomposition(1, 6),
        "yangian_decomposition": lambda: yangian_decomposition(3, 1, 4),
        "small_norm_weights": lambda: small_norm_weights(3, 1),
        "spinon-cut suite": lambda: build_suite("spinon-cut", n=2),
        "bijections suite": lambda: build_suite("bijections", n=2),
    }
    was_enabled = gc.isenabled()
    gc.disable()  # an automatic collection would hide a cycle
    gc.collect()
    gc.freeze()
    try:
        for name, call in calls.items():
            gc.collect()
            call()
            assert gc.collect() == 0, name
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


def test_sl2_strip_product_matches_schur_up_to_e2_powers():
    e2 = elementary(2, 2)
    for size in range(8):
        for cols in enumerate_border_strips(2, size, reduced=True):
            prod = sl2_strip_product(transpose(cols))
            lifted = prod
            r = len(transpose(cols))
            for _ in range(r - 1):
                lifted = lifted * e2
            assert lifted == schur_skew(shape(cols), 2), cols


def test_complete_h_rewrite_with_e2_factor():
    e2 = elementary(2, 2)
    for a in range(1, 7):
        for b in range(1, 7):
            lhs = complete(a, 2) * complete(b, 2) - complete(a + b, 2)
            rhs = e2 * complete(a - 1, 2) * complete(b - 1, 2)
            assert lhs == rhs, (a, b)


def test_stabilization_adding_full_column_preserves_weights():
    for n in (2, 3):
        for size in range(6):
            for cols in enumerate_border_strips(n, size, reduced=True):
                assert stabilization_check(list(cols), n), cols


def test_rogers_szego_at_q_one_is_multinomial_expansion():
    for total in range(5):
        for nvars in (1, 2, 3):
            poly = rogers_szego(total, nvars, 8)
            assert all(type(c) is tuple and len(c) == 9 for c in poly.values())
            # at q=1 the polynomial collapses to (x_1+...+x_nvars)^total
            assert sum(sum(c) for c in poly.values()) == nvars ** total, (
                total, nvars)


def test_rogers_szego_generating_function():
    for nvars in (1, 2, 3):
        assert rs_generating_check(4, nvars, 4), nvars


def test_sympoly_takes_int_coefficients_only():
    """A coefficient that is not an int raises TypeError, as a part given to
    `partition` does; an exponent vector of the wrong length raises ValueError."""
    for coeff in ((1, 0, 0, 0, 0), 1.0, True, Fraction(1)):
        with pytest.raises(TypeError):
            SymPoly(2, {(1, 0): coeff})
    with pytest.raises(ValueError):
        SymPoly(2, {(1, 0, 0): 1})
    assert dict(SymPoly(2, {(1, 0): 3, (0, 1): 0}).monomials()) == {(1, 0): 3}


def test_sympoly_arithmetic_drops_cancelled_terms():
    x, y = SymPoly(2, {(1, 0): 1}), SymPoly(2, {(0, 1): 1})
    assert (x + y) - y == x
    assert dict(((x + y) * (x - y)).monomials()) == {(2, 0): 1, (0, 2): -1}
    assert (x - x).is_zero() and (x * 0).is_zero()
    assert 3 * x == x + x + x
    with pytest.raises(ValueError):
        x + SymPoly(3)


def test_weight_projection_collapses_e2():
    poly = elementary(2, 2) * complete(1, 2)
    assert weight_projection(poly) == weight_projection(complete(1, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3))
def test_h_products_commute(a, b, nvars):
    assert complete(a, nvars) * complete(b, nvars) == \
        complete(b, nvars) * complete(a, nvars)
