"""Reference implementations that only the tests call: the strip search the
Yangian route replaced, the coefficient-by-coefficient series product the
big-integer one replaced, the per-matrix Jacobi-Trudi determinant the shared
minors replaced, the tuple-keyed polynomial arithmetic the packed monomials
replaced, expansions and statistics no route needs, and hand-built
character tables holding rows that no builder writes, and the skew shapes
and polynomials the property tests draw."""
from operator import mul

from hypothesis import strategies as st

from spinonchars.affine import conformal_dimension, dominant_weight
from spinonchars.partitions import conjugate, padded
from spinonchars.strips import energy, from_rows, shape, strip
from spinonchars.symfunc import (
    SymPoly,
    _sum_of_products,
    complete,
    elementary,
    schur_skew,
    weight_projection,
)
from spinonchars.verify import weight_rows


def reduced_strips(n: int, k: int, e2_max: int):
    """Yield (strip, e2) for every reduced rank-n strip of class k (size
    congruent to k mod n) with e2 = 2n * energy(strip, n) <= e2_max.

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
            right_to_left = cols[::-1]
            if energy(right_to_left, n) * (2 * n) != e2:
                raise AssertionError(
                    f"energy increment identity fails on {right_to_left} at n={n}: "
                    f"2n*E = {energy(right_to_left, n) * (2 * n)} != {e2}"
                )
            yield right_to_left, e2
        s = len(cols)
        for b in range(1, n + 1 if s else n):
            grown = e2 + b * (2 * (n * s - m) + n - b)
            if grown <= e2_max:
                stack.append((cols + (b,), m + b, grown))


def pochhammer(n: int, qmax: int) -> tuple:
    """(q)_n = prod_{k=1}^{n} (1 - q^k), truncated at qmax.

    Built at order qmax: starting from 1, each factor (1 - q^j) with
    j <= min(n, qmax) is applied in place, c[d] -= c[d - j] for d from qmax
    down to j, so every coefficient read still belongs to the previous
    partial product.  Factors with j > qmax are 1 below the truncation."""
    if n < 0:
        raise ValueError(f"pochhammer index must be >= 0, got {n}")
    coeffs = [1] + [0] * qmax
    for j in range(1, min(n, qmax) + 1):
        for d in range(qmax, j - 1, -1):
            coeffs[d] -= coeffs[d - j]
    return tuple(coeffs)


def convolution_product(a: tuple, b: tuple) -> tuple:
    """The product of two series at the lower order of the two, summed
    coefficient by coefficient: the reference for `qseries.product`, which
    does one big-integer multiplication instead.  a = q^la A and
    b = q^lb B, so a b = q^(la + lb) A B, and coefficient e of A B is
    A[0] B[e] + ... + A[e] B[0], the first e + 1 entries of A against the
    last e + 1 of B reversed through its entry top."""
    size = min(len(a), len(b))
    la = next((i for i, c in enumerate(a) if c), size)
    lb = next((i for i, c in enumerate(b) if c), size)
    top = size - 1 - la - lb
    if top < 0:
        return (0,) * size
    a, rb = a[la:la + top + 1], b[lb + top:lb - 1 if lb else None:-1]
    return (0,) * (la + lb) + tuple(
        sum(map(mul, a[: e + 1], rb[top - e:])) for e in range(top + 1))


def sl2_strip_product(rows) -> SymPoly:
    """s_<a_1..a_r> at n=2 as a product of complete symmetric polynomials."""
    rows = list(rows)
    if not rows:
        return SymPoly.one(2)
    if len(rows) == 1:
        return schur_skew(shape(from_rows(rows, 2)), 2, "jt_h")
    if rows[0] < 1 or rows[-1] < 1 or any(a < 2 for a in rows[1:-1]):
        raise ValueError(f"invalid n=2 strip rows {rows}")
    poly = SymPoly.one(2)
    r = len(rows)
    for i, a in enumerate(rows, start=1):
        drop = 1 if i in (1, r) else 2
        poly = poly * complete(a - drop, 2)
    return poly


def stabilization_check(cols, n: int) -> bool:
    """True iff appending a full column of height n leaves the weight-projected
    Schur polynomial, in n variables, unchanged."""
    base = strip(cols, n)
    p1 = schur_skew(shape(base), n, "jt_h")
    p2 = schur_skew(shape(base + (n,)), n, "jt_h")
    return weight_projection(p1) == weight_projection(p2)


def jacobi_trudi_matrix(shape, nvars: int, method: str) -> list[list[SymPoly]]:
    """[h_{lam_i - mu_j - i + j}] (jt_h) or [e_{lam'_i - mu'_j - i + j}]
    (jt_e) for i, j in 1..len(lam), written out entry by entry, for the
    shape (lam, mu)."""
    lam, mu = shape
    basis = complete
    if method == "jt_e":
        lam, mu, basis = conjugate(lam), conjugate(mu), elementary
    r = len(lam)
    mu = padded(mu, r)
    return [[basis(lam[i] - mu[j] - i + j, nvars) for j in range(r)] for i in range(r)]


def determinant(matrix: list[list[SymPoly]], nvars: int) -> SymPoly:
    """Determinant by first-column minor expansion, with a memo of the minors
    of this one matrix that is dropped on return."""
    return _minor(matrix, tuple(range(len(matrix))), {}, nvars)


def _minor(matrix, rows: tuple[int, ...], memo: dict, nvars: int) -> SymPoly:
    """Minor on `rows` and the last len(rows) columns."""
    if not rows:
        return SymPoly.one(nvars)
    if rows not in memo:
        col = len(matrix) - len(rows)
        memo[rows] = _sum_of_products(nvars, (
            (-1 if pos % 2 else 1, matrix[r][col],
             _minor(matrix, rows[:pos] + rows[pos + 1:], memo, nvars))
            for pos, r in enumerate(rows) if not matrix[r][col].is_zero()
        ))
    return memo[rows]


def tuple_sum_of_products(products) -> dict:
    """sum of c * a * b over the (c, a, b) in `products`, with c an int and
    a, b dicts from exponent tuples to int coefficients, as such a dict
    without zero coefficients: each product of monomials adds the exponent
    tuples entry by entry, with no bound on an entry."""
    out: dict = {}
    for c, a, b in products:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c * c1 * c2
    return {e: c for e, c in out.items() if c}


def eval_ones(poly: SymPoly) -> int:
    """Sum of coefficients (the value at x_1 = ... = x_n = 1)."""
    return sum(poly.terms.values())


def poly_degrees(polys) -> tuple[int, ...]:
    """The degrees of the Drinfel'd polynomials P_1..P_{n-1}."""
    return tuple(len(r) for r in polys)


def skew_size(shape) -> int:
    """The number of cells of a skew shape (outer, inner)."""
    return sum(shape[0]) - sum(shape[1])


def table_json_dict(orbits: dict, n: int, k: int, qmax: int) -> dict:
    """The table (n, k, qmax) of orbit rows `orbits` as the dict whose
    `json.dumps(..., indent=2)` is the layout of `char --format json`."""
    delta = conformal_dimension(n, k)
    return {
        "n": n,
        "k": k,
        "delta": f"{delta.numerator}/{delta.denominator}",
        "qmax": qmax,
        "rows": [{"weight": list(w), "coeffs": list(row)} for w, row in weight_rows(orbits)],
    }


def hand_built(rows) -> dict:
    """The table whose orbit of each weight of the (weight, coefficients)
    pairs `rows` holds those coefficients, as a tuple; a later weight of one
    orbit replaces an earlier one."""
    return {dominant_weight(w): tuple(coeffs) for w, coeffs in rows}


@st.composite
def skew_shapes(draw, max_size: int) -> tuple:
    """A skew shape (lam, mu) with |lam| <= max_size: lam from weakly
    decreasing parts while they fit, then each part of mu at most its part of
    lam and the part of mu above it, its zero parts dropped."""
    lam: list[int] = []
    for part in sorted(draw(st.lists(st.integers(1, max_size), max_size=max_size)),
                       reverse=True):
        if sum(lam) + part <= max_size:
            lam.append(part)
    mu: list[int] = []
    for part in lam:
        mu.append(draw(st.integers(0, min([part, *mu[-1:]]))))
    return tuple(lam), tuple(p for p in mu if p)


@st.composite
def monomial_dicts(draw, nvars: int, degree: int) -> dict:
    """A dict from exponent tuples of length nvars to int coefficients, the
    input `SymPoly` takes: one term of total degree exactly `degree` with a
    nonzero coefficient, then up to five more of total degree at most
    `degree`, whose coefficients may be 0 or past a machine word.  Each
    exponent tuple cuts its total degree at sorted points, so every entry
    is at most `degree`."""
    def exponents(total: int) -> tuple:
        cuts = sorted(draw(st.lists(st.integers(0, total),
                                    min_size=nvars - 1, max_size=nvars - 1)))
        return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))

    coeffs = st.integers(-3, 3) | st.integers(-2**70, 2**70)
    terms = {exponents(degree): draw(coeffs.filter(bool))}
    for _ in range(draw(st.integers(0, 5))):
        terms.setdefault(exponents(draw(st.integers(0, degree))), draw(coeffs))
    return terms
