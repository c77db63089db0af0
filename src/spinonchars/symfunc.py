"""Symmetric polynomials in finitely many variables: integer coefficients;
Rogers-Szego as composition -> q-series dicts.  Everything is exact.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, takewhile
from operator import add

from .affine import exps_to_fw
from .partitions import Partition, SkewShape
from .qseries import inv_pochhammer, inv_pochhammer_product, qmultinomial
from .strips import BorderStrip


class SymPoly:
    """Map from exponent vectors (tuples of length nvars) to nonzero int
    coefficients.  A coefficient that is not an `int` (a QSeries, a float or
    a bool) raises TypeError."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if type(coeff) is not int:
                raise TypeError(f"coefficients must be ints, got {coeff!r}")
            if coeff:
                self.terms[tuple(exps)] = coeff

    @staticmethod
    def one(nvars: int) -> "SymPoly":
        return SymPoly(nvars, {(0,) * nvars: 1})

    @staticmethod
    def zero(nvars: int) -> "SymPoly":
        return SymPoly(nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def _nvars_with(self, other: "SymPoly") -> int:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return self.nvars

    def __add__(self, other: "SymPoly") -> "SymPoly":
        one = SymPoly.one(self._nvars_with(other))
        return _sum_of_products(self.nvars, ((1, self, one), (1, other, one)))

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        one = SymPoly.one(self._nvars_with(other))
        return _sum_of_products(self.nvars, ((1, self, one), (-1, other, one)))

    def __mul__(self, other):
        if isinstance(other, int):
            one = SymPoly.one(self.nvars)
            return _sum_of_products(self.nvars, ((other, self, one),))
        if not isinstance(other, SymPoly):
            return NotImplemented
        return _sum_of_products(self._nvars_with(other), ((1, self, other),))

    __rmul__ = __mul__

    def eval_ones(self) -> int:
        """Sum of coefficients (the value at x_1 = ... = x_n = 1)."""
        return sum(self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return f"SymPoly(nvars={self.nvars}, nterms={len(self.terms)})"


def _sum_of_products(nvars: int, products) -> SymPoly:
    """sum of c * a * b over the (c, a, b) in `products`, with c an int and
    a, b SymPolys in nvars variables.  The result is built in one dict, and
    its zero coefficients are dropped once, at the end."""
    out: dict = {}
    get = out.get
    for c, a, b in products:
        for e1, c1 in a.terms.items():
            c1 *= c
            for e2, c2 in b.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
    poly = SymPoly.__new__(SymPoly)
    poly.nvars = nvars
    poly.terms = {e: c for e, c in out.items() if c}
    return poly


@lru_cache(maxsize=None)
def elementary(m: int, nvars: int) -> SymPoly:
    """e_m: sum of squarefree degree-m monomials; zero for m < 0 or m > nvars.
    Memoized: no SymPoly is changed after construction, so callers share it."""
    if m < 0 or m > nvars:
        return SymPoly.zero(nvars)
    terms = {}
    for idx in combinations(range(nvars), m):
        e = [0] * nvars
        for i in idx:
            e[i] = 1
        terms[tuple(e)] = 1
    return SymPoly(nvars, terms)


@lru_cache(maxsize=None)
def complete(m: int, nvars: int) -> SymPoly:
    """h_m: sum of all degree-m monomials; zero for m < 0.  Memoized, as
    `elementary` is."""
    if m < 0:
        return SymPoly.zero(nvars)
    terms = {}
    for idx in combinations_with_replacement(range(nvars), m):
        e = [0] * nvars
        for i in idx:
            e[i] += 1
        terms[tuple(e)] = 1
    return SymPoly(nvars, terms)


def _det(matrix: list[list[SymPoly]], nvars: int) -> SymPoly:
    """Determinant by first-column minor expansion with subset memoization."""
    return _minor(matrix, tuple(range(len(matrix))), {}, nvars)


def _minor(matrix, rows: tuple[int, ...], memo: dict, nvars: int) -> SymPoly:
    """Minor on `rows` and the last len(rows) columns.  A module-level
    function, not a closure, so that the memo of SymPolys is freed on return
    instead of waiting in a reference cycle for the collector."""
    if not rows:
        return SymPoly.one(nvars)
    if rows in memo:
        return memo[rows]
    col = len(matrix) - len(rows)
    memo[rows] = _sum_of_products(nvars, (
        (-1 if pos % 2 else 1, matrix[r][col],
         _minor(matrix, rows[:pos] + rows[pos + 1:], memo, nvars))
        for pos, r in enumerate(rows) if not matrix[r][col].is_zero()
    ))
    return memo[rows]


def _sst_fillings(cells, filling: dict, idx: int, nvars: int):
    """Yield every semi-standard completion of `filling` on cells[idx:], as
    dicts cell -> entry in 1..nvars; `filling` is restored afterwards."""
    if idx == len(cells):
        yield dict(filling)
        return
    i, j = cells[idx]
    lo = 1
    left = filling.get((i, j - 1))
    if left is not None:
        lo = max(lo, left)
    up = filling.get((i - 1, j))
    if up is not None:
        lo = max(lo, up + 1)
    for v in range(lo, nvars + 1):
        filling[(i, j)] = v
        yield from _sst_fillings(cells, filling, idx + 1, nvars)
    filling.pop((i, j), None)


def schur_skew(shape: SkewShape, nvars: int, method: str = "jt_h") -> SymPoly:
    """Skew Schur polynomial by determinant (jt_h, jt_e) or tableau sum (sst)."""
    lam, mu = shape.outer, shape.inner
    if method == "jt_h":
        r = len(lam)
        matrix = [
            [complete(lam[i] - mu[j] - i + j, nvars) for j in range(1, r + 1)]
            for i in range(1, r + 1)
        ]
        return _det(matrix, nvars)
    if method == "jt_e":
        lc, mc = lam.conjugate(), mu.conjugate()
        s = len(lc)
        matrix = [
            [elementary(lc[i] - mc[j] - i + j, nvars) for j in range(1, s + 1)]
            for i in range(1, s + 1)
        ]
        return _det(matrix, nvars)
    if method == "sst":
        acc: dict = {}
        for filling in _sst_fillings(shape.cells(), {}, 0, nvars):
            e = [0] * nvars
            for v in filling.values():
                e[v - 1] += 1
            e = tuple(e)
            acc[e] = acc.get(e, 0) + 1
        return SymPoly(nvars, acc)
    raise ValueError(f"unknown method {method!r}")


def ribbon_expansion(rows) -> dict[Partition, int]:
    """Expand the ribbon (border strip) Schur function with row lengths
    `rows` as sum_nu d_{nu,alpha} s_nu by Gessel's rule (Stanley EC2 7.19):
    d_{nu,alpha} is the number of standard Young tableaux of shape nu whose
    descent composition is alpha = rows.  A ribbon rotated by 180 degrees has
    the same Schur function, so the rows may be read in either order."""
    alpha = tuple(rows)
    if any(a < 1 for a in alpha):
        raise ValueError(f"ribbon rows must be positive: {list(alpha)}")
    return dict(_descent_table(sum(alpha)).get(alpha, {}))


@lru_cache(maxsize=None)
def _descent_table(size: int) -> dict[tuple[int, ...], dict[Partition, int]]:
    """Descent composition -> shape nu -> number of standard Young tableaux
    of shape nu, |nu| = size, with that descent composition.  Tableaux are
    grown by placing 1, 2, ..., size; i is a descent when i+1 lands in a
    lower row, which starts a new part of the composition.  Equal
    (shape, last row, composition) prefixes are merged, so the work is
    bounded by the number of such states, not of tableaux."""
    states = {((), -1, ()): 1}  # (shape, row of the last entry, composition)
    for _ in range(size):
        grown: dict = {}
        for (shape, last, comp), count in states.items():
            padded = shape + (0,)
            for row in range(len(padded)):
                if row and padded[row - 1] == padded[row]:
                    continue  # no addable cell in this row
                new_shape = padded[:row] + (padded[row] + 1,) + shape[row + 1:]
                new_comp = comp + (1,) if row > last else comp[:-1] + (comp[-1] + 1,)
                key = (new_shape, row, new_comp)
                grown[key] = grown.get(key, 0) + count
        states = grown
    table: dict = {}
    for (shape, _, comp), count in states.items():
        by_shape = table.setdefault(comp, {})
        nu = Partition(shape)
        by_shape[nu] = by_shape.get(nu, 0) + count
    return table


def skew_kostka(outer: Partition, inner: Partition, mu) -> int:
    """The number of semistandard tableaux of shape outer/inner with content
    mu, which is the coefficient of x^mu in s_{outer/inner}: the number of
    chains inner = k_0 < k_1 < ... < outer in which each k_i/k_{i-1} is a
    horizontal strip of mu_i boxes.  With inner empty this is the Kostka
    number K_{outer,mu}."""
    target = tuple(outer)
    layer = {tuple(inner[i] for i in range(1, len(target) + 1)): 1}
    for m in mu:
        grown: dict = {}
        for kappa, count in layer.items():
            for rho in _horizontal_strips(kappa, target, m):
                grown[rho] = grown.get(rho, 0) + count
        layer = grown
    return layer.get(target, 0)


def _horizontal_strips(kappa, outer, size) -> list[tuple[int, ...]]:
    """Every rho inside `outer` such that rho/kappa is a horizontal strip of
    `size` boxes.  Row i may grow by up to min(outer_i, kappa_{i-1}) -
    kappa_i boxes, independently of the other rows; a row takes at least
    what the rows below it cannot, so no prefix is built in vain."""
    room = [min(outer[i], kappa[i - 1]) - kappa[i] if i else outer[0] - kappa[0]
            for i in range(len(kappa))]
    below = list(accumulate(reversed(room + [0])))[::-1]  # below[i]: rows i..
    partial = [((), size)]
    for i, r in enumerate(room):
        partial = [(prefix + (kappa[i] + a,), rest - a)
                   for prefix, rest in partial
                   for a in range(max(0, rest - below[i + 1]), min(r, rest) + 1)]
    return [prefix for prefix, rest in partial if rest == 0]


def strip_schur(strip: BorderStrip, nvars: int) -> SymPoly:
    """Skew Schur polynomial of a border strip via the column recurrence.

    Peeling j columns off the left end contributes (-1)^{j-1} e_{(sum of those
    column heights)}; since e_m vanishes for m > nvars each step looks back
    at most nvars columns.
    """
    cols = strip.cols
    upto = [SymPoly.one(nvars)]  # upto[j]: the strip of the j rightmost columns
    for j in range(1, len(cols) + 1):
        # heights[t]: columns j-1 down to j-1-t, peeled while e_height is nonzero
        heights = takewhile(lambda h: h <= nvars, accumulate(cols[j - 1::-1]))
        upto.append(_sum_of_products(nvars, (
            (-1 if t % 2 else 1, elementary(h, nvars), upto[j - 1 - t])
            for t, h in enumerate(heights)
        )))
    return upto[-1]


def sl2_strip_product(rows) -> SymPoly:
    """s_<a_1..a_r> at n=2 as a product of complete symmetric polynomials."""
    rows = list(rows)
    if not rows:
        return SymPoly.one(2)
    if len(rows) == 1:
        return schur_skew(BorderStrip.from_rows(rows, 2).shape, 2, "jt_h")
    if rows[0] < 1 or rows[-1] < 1 or any(a < 2 for a in rows[1:-1]):
        raise ValueError(f"invalid n=2 strip rows {rows}")
    poly = SymPoly.one(2)
    r = len(rows)
    for i, a in enumerate(rows, start=1):
        drop = 1 if i in (1, r) else 2
        poly = poly * complete(a - drop, 2)
    return poly


def weight_projection(poly: SymPoly) -> dict[tuple[int, ...], int]:
    """Collapse a SymPoly onto fundamental-weight coordinates (x_1...x_n = 1)."""
    out: dict = {}
    for e, c in poly.terms.items():
        w = exps_to_fw(e)
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def stabilization_check(cols, n: int) -> bool:
    """True iff appending a full column of height n leaves the weight-projected
    Schur polynomial, in n variables, unchanged."""
    base = BorderStrip(cols, n)
    extended = BorderStrip(base.cols + (n,), n)
    p1 = schur_skew(base.shape, n, "jt_h")
    p2 = schur_skew(extended.shape, n, "jt_h")
    return weight_projection(p1) == weight_projection(p2)


def rogers_szego(total: int, nvars: int, qmax: int) -> dict:
    """H_N as composition -> q-series: the coefficient of x^comp, over every
    composition of N into nvars parts, is the q-multinomial of comp."""
    if total < 0:
        raise ValueError("N must be >= 0")
    return {comp: qmultinomial(comp, qmax) for comp in _compositions(total, nvars)}


def _compositions(total: int, parts: int, prefix: tuple = ()):
    """Yield every composition of `total` into `parts` non-negative parts,
    after `prefix`, in lexicographic order.  A module-level generator, not a
    closure, so that no reference cycle outlives the iteration."""
    if parts == 1:
        yield prefix + (total,)
        return
    for v in range(total + 1):
        yield from _compositions(total - v, parts - 1, prefix + (v,))


def rs_generating_check(nmax: int, nvars: int, qmax: int) -> bool:
    """Verify sum_N H_N t^N/(q)_N = prod_i (t x_i; q)_inf^{-1} through t^nmax.

    The right side's t^N coefficient is expanded independently via the
    single-variable expansion 1/(t z; q)_inf = sum_j z^j t^j / (q)_j.
    """
    for total in range(nmax + 1):
        scale = inv_pochhammer(total, qmax)
        lhs = {comp: c * scale for comp, c in rogers_szego(total, nvars, qmax).items()}
        rhs = {comp: inv_pochhammer_product(comp, qmax)
               for comp in _compositions(total, nvars)}
        if lhs != rhs:
            return False
    return True
