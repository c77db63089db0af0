"""Symmetric polynomials in finitely many variables: integer coefficients;
Rogers-Szego as composition -> q-series dicts.  Everything is exact.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import add

from .affine import exps_to_fw
from .partitions import conjugate, ends_at, horizontal_strips, padded
from .qseries import inv_pochhammer, inv_pochhammer_product, qmultinomial


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


@lru_cache(maxsize=None)
def _jt_det(basis, nvars: int, rows: tuple, cols: tuple) -> SymPoly:
    """det[basis(r - c, nvars)] over r in `rows` and c in `cols`, with
    `basis` `complete` or `elementary`, by expansion along the first column.
    Callers shift rows and cols so that cols[0] == 0 (see `schur_skew`); the
    memo keeps every minor for the life of the process."""
    if not rows:
        return SymPoly.one(nvars)
    shift = cols[1] if len(cols) > 1 else 0
    minor_cols = tuple(c - shift for c in cols[1:])
    return _sum_of_products(nvars, (
        (-1 if pos % 2 else 1, entry,
         _jt_det(basis, nvars, tuple(x - shift for x in rows[:pos] + rows[pos + 1:]),
                 minor_cols))
        for pos, r in enumerate(rows) if not (entry := basis(r, nvars)).is_zero()
    ))


def schur_skew(shape: tuple, nvars: int, method: str = "jt_h") -> SymPoly:
    """Skew Schur polynomial of the shape (outer, inner) by determinant (jt_h,
    jt_e) or tableau sum (sst).

    jt_h is det[h_{lam_i - mu_j - i + j}] and jt_e det[e_{lam'_i - mu'_j - i +
    j}] (Macdonald I.5), both `_jt_det` with rows lam_i - i and columns
    mu_j - j (of the conjugates for jt_e).  The two determinant routes share
    that one memo of minors for the life of the process, keyed by the row and
    column index sequences shifted so that the first column is 0: an entry
    depends only on a row index minus a column index, so the shift leaves the
    minor unchanged, and shapes that differ by it share their minors.

    sst sums over the semistandard tableaux with entries 1..nvars, read as
    chains inner = k_0 <= k_1 <= ... <= k_nvars = outer in which k_i/k_{i-1},
    the cells holding i, is a horizontal strip, by a transfer matrix (Stanley,
    EC1 4.7): the chains that reach one k_i share its dict from content
    prefix to count, and the last strip must end at outer (`ends_at`).  It
    reads no determinant."""
    outer, inner = shape
    if method in ("jt_h", "jt_e"):
        lam, mu, basis = outer, inner, complete
        if method == "jt_e":
            lam, mu, basis = conjugate(lam), conjugate(mu), elementary
        mu = padded(mu, len(lam))
        shift = mu[0] if mu else 0  # the first column index mu_1 - 1 goes to 0
        return _jt_det(basis, nvars, tuple(p - i - shift for i, p in enumerate(lam)),
                       tuple(p - j - shift for j, p in enumerate(mu)))
    if method == "sst":
        layer = {padded(inner, len(outer)): {(): 1}}  # k_i -> content -> count
        for i in range(1, nvars + 1):
            grown: dict = {}
            for kappa, counts in layer.items():
                if i < nvars:
                    steps = horizontal_strips(kappa, outer)
                else:  # the last strip ends at outer
                    size = sum(outer) - sum(kappa)
                    steps = ((outer, size),) if ends_at(kappa, outer) else ()
                for rho, size in steps:
                    into = grown.setdefault(rho, {})
                    for prefix, c in counts.items():
                        key = (*prefix, size)
                        into[key] = into.get(key, 0) + c
            layer = grown
        return SymPoly(nvars, layer.get(outer, {}))
    raise ValueError(f"unknown method {method!r}")


def ribbon_expansion(rows) -> dict[tuple[int, ...], int]:
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
def _descent_table(size: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
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
        by_shape[shape] = by_shape.get(shape, 0) + count
    return table


def skew_kostka(outer: tuple[int, ...], inner: tuple[int, ...], mu) -> int:
    """The number of semistandard tableaux of shape outer/inner with content
    mu, which is the coefficient of x^mu in s_{outer/inner}: the number of
    chains inner = k_0 < k_1 < ... < outer in which each k_i/k_{i-1} is a
    horizontal strip of mu_i boxes.  With inner empty this is the Kostka
    number K_{outer,mu}."""
    layer = {padded(inner, len(outer)): 1}
    for m in mu:
        grown: dict = {}
        for kappa, count in layer.items():
            for rho, size in horizontal_strips(kappa, outer):
                if size == m:
                    grown[rho] = grown.get(rho, 0) + count
        layer = grown
    return layer.get(outer, 0)


def weight_projection(poly: SymPoly) -> dict[tuple[int, ...], int]:
    """Collapse a SymPoly onto fundamental-weight coordinates (x_1...x_n = 1)."""
    out: dict = {}
    for e, c in poly.terms.items():
        w = exps_to_fw(e)
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


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
