"""Yangian-side combinatorics: Drinfel'd polynomials, GZ schemes, and the
border-strip decompositions of the level-1 affine characters."""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .affine import CharacterTable, exps_to_fw, orbit_size, sl2_spinon_grades
from .partitions import Partition, SkewShape, partitions_of
from .strips import sl2_partition_to_strip
from .symfunc import SymPoly, complete, elementary, strip_schur, weight_projection


class DrinfeldPolys:
    """Monic P_1..P_{n-1} stored as multisets of roots in half-integer units."""

    __slots__ = ("n", "roots")

    def __init__(self, n: int, roots):
        roots = tuple(tuple(sorted(r)) for r in roots)
        if len(roots) != n - 1:
            raise ValueError(f"expected {n - 1} root multisets, got {len(roots)}")
        self.n = n
        self.roots = roots

    def poly_degrees(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.roots)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "P": [list(r) for r in self.roots]}

    def __eq__(self, other):
        if not isinstance(other, DrinfeldPolys):
            return NotImplemented
        return self.n == other.n and self.roots == other.roots

    def __repr__(self):
        halves = [[Fraction(h, 2) for h in r] for r in self.roots]
        return f"DrinfeldPolys(n={self.n}, roots={halves})"


def drinfeld_evaluation(lam: Partition, n: int) -> DrinfeldPolys:
    """Evaluation module of highest weight lam: P_i has the unit-spaced string
    of roots (i-1)/2 + lam_i - j, j = 0..lam_i-lam_{i+1}-1 (halves stored)."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > n:
        raise ValueError(f"lambda must have at most {n} parts")
    roots = []
    for i in range(1, n):
        string = [
            (i - 1) + 2 * (lam[i] - j) for j in range(lam[i] - lam[i + 1])
        ]
        roots.append(string)
    return DrinfeldPolys(n, roots)


def drinfeld_tame(shape: SkewShape, n: int) -> DrinfeldPolys:
    """Tame module of a skew shape: each column of height i contributes the
    root (lam'_j + mu'_j)/2 + j - 1/2 to P_i (halves stored)."""
    lc, mc = shape.outer.conjugate(), shape.inner.conjugate()
    roots: list[list[int]] = [[] for _ in range(n - 1)]
    for j in range(1, len(lc) + 1):
        height = lc[j] - mc[j]
        if height == 0:
            continue
        if height > n:
            raise ValueError(f"column {j} has height {height} > n={n}")
        if height == n:
            continue  # full columns contribute to no P_i
        roots[height - 1].append((lc[j] + mc[j]) + 2 * j - 1)
    return DrinfeldPolys(n, roots)


class GZScheme:
    """A chain of partitions mu = row_0 <= row_1 <= ... <= row_n = lam with the
    interleaving condition row_{m,i} >= row_{m-1,i} >= row_{m,i+1}."""

    __slots__ = ("rows", "n_spinons")

    def __init__(self, rows, n_spinons: int):
        rows = tuple(p if isinstance(p, Partition) else Partition(p) for p in rows)
        if len(rows) < 2:
            raise ValueError("a scheme needs at least two rows")
        for m in range(1, len(rows)):
            if len(rows[m]) > n_spinons + m:
                raise ValueError(f"row {m} too long: {rows[m]}")
            if not _interleaves(rows[m], rows[m - 1]):
                raise ValueError(f"interleaving fails between rows {m - 1} and {m}")
        if len(rows[0]) > n_spinons:
            raise ValueError("bottom row too long")
        self.rows = rows
        self.n_spinons = n_spinons

    @classmethod
    def _trusted(cls, rows: tuple[Partition, ...], n_spinons: int) -> "GZScheme":
        """A scheme from rows that are already Partitions and already satisfy
        every condition `__init__` checks; only `gz_schemes`, which builds
        its chains valid by construction, calls it."""
        scheme = cls.__new__(cls)
        scheme.rows = rows
        scheme.n_spinons = n_spinons
        return scheme

    def __eq__(self, other):
        if not isinstance(other, GZScheme):
            return NotImplemented
        return self.rows == other.rows and self.n_spinons == other.n_spinons

    def __hash__(self):
        return hash((self.rows, self.n_spinons))

    def __repr__(self):
        return f"GZScheme({[list(p.parts) for p in self.rows]}, N={self.n_spinons})"


def gz_schemes(lam: Partition, mu: Partition, n: int, n_spinons: int) -> list[GZScheme]:
    """All interleaving-admissible chains from mu (row 0) to lam (row n).

    Each chain is valid by construction, so it skips the checks of
    `GZScheme.__init__`.  mu has at most N parts and lam at most N + n (both
    checked here).  Row m (0 < m < n) is drawn by `_interlacing_above` with
    at most N + m parts; row m - 1 has at most N + m - 1 parts and lies in
    lam, so the length cap leaves a row above each of its parts, and row m
    interleaves above it.  lam is kept only where it interleaves above row
    n - 1."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if not isinstance(mu, Partition):
        mu = Partition(mu)
    if not lam.contains(mu):
        raise ValueError(f"{mu} not contained in {lam}")
    if len(mu) > n_spinons:
        raise ValueError(f"l(mu)={len(mu)} exceeds N={n_spinons}")
    if len(lam) > n_spinons + n:
        raise ValueError(f"l(lambda)={len(lam)} exceeds N+n={n_spinons + n}")

    chains = [[mu]]
    for m in range(1, n):
        chains = [
            chain + [nu]
            for chain in chains
            for nu in _interlacing_above(chain[-1], lam, n_spinons + m)
        ]
    return [
        GZScheme._trusted((*chain, lam), n_spinons)
        for chain in chains
        if _interleaves(lam, chain[-1])
    ]


def _interleaves(upper: Partition, lower: Partition) -> bool:
    top = max(len(upper), len(lower)) + 1
    return all(upper[i] >= lower[i] >= upper[i + 1] for i in range(1, top + 1))


def _interlacing_above(lower: Partition, lam: Partition, max_len: int) -> list:
    """All nu with at most `max_len` parts, interlacing above `lower` and
    contained in lam."""
    out: list = []
    _extend_rows(lower, lam, min(max_len, len(lam), len(lower) + 1), [], out)
    return out


def _extend_rows(lower, lam, lmax, prefix, out) -> None:
    """Append to `out` every interlacing completion of rows 1..len(prefix).
    A module-level function, not a closure, so that no reference cycle keeps
    the results alive."""
    i = len(prefix) + 1
    if i > lmax:
        out.append(Partition(prefix))
        return
    hi = min(lam[i], lower[i - 1]) if i >= 2 else lam[1]
    for v in range(lower[i], hi + 1):
        _extend_rows(lower, lam, lmax, prefix + [v], out)


def gz_weight(scheme: GZScheme) -> tuple[int, ...]:
    """Fundamental-weight coordinates from the row-sum differences."""
    sums = [p.size() for p in scheme.rows]
    return exps_to_fw([sums[m] - sums[m - 1] for m in range(1, len(sums))])


def gz_to_sst(scheme: GZScheme) -> dict[tuple[int, int], int]:
    """Boxes added between row m-1 and row m receive entry m (cells 0-indexed)."""
    tableau: dict[tuple[int, int], int] = {}
    for m in range(1, len(scheme.rows)):
        upper, lower = scheme.rows[m], scheme.rows[m - 1]
        for i in range(1, len(upper) + 1):
            for j in range(lower[i], upper[i]):
                tableau[(i - 1, j)] = m
    return tableau


def sst_to_gz(
    tableau: dict[tuple[int, int], int], lam: Partition, mu: Partition,
    n: int, n_spinons: int,
) -> GZScheme:
    """Inverse of gz_to_sst: row m collects mu plus all boxes with entry <= m."""
    rows = []
    for m in range(n + 1):
        nrows = max([len(mu)] + [i + 1 for (i, _), e in tableau.items() if e <= m])
        parts = []
        for i in range(nrows):
            width = mu[i + 1] + sum(
                1 for (r, _), e in tableau.items() if r == i and e <= m
            )
            parts.append(width)
        rows.append(Partition(parts))
    return GZScheme(rows, n_spinons)


def yangian_decomposition(n: int, k: int, qmax: int) -> CharacterTable:
    """ch L(Lambda_k) = sum over reduced border strips kappa of class k of
    q^{E(kappa)} s_kappa, graded relative to Delta_k, summed by the
    transfer-matrix method (Stanley, EC1 4.7) over merged search states
    instead of strip by strip.  Energies are kept as e2 = 2n*E, and
    2n*Delta_k = k(n-k).

    Search.  As in `strips.reduced_strips`, a strip is built by appending
    its columns left to right.  For a prefix of s columns and m boxes let
    d = n*s - m = sum_i (n - b_i).  Appending a column of height b adds
    b(2d + n - b) to e2, by the column form of `strips.energy`, and sets
    d <- d + n - b.

    * Start: a strip is reduced when its leftmost column, the first one
      appended, is shorter than n.  That term makes d >= 1 and no column
      makes d smaller, so d = 0 holds for the empty prefix alone, which may
      take heights 1..n-1 only; every other prefix takes 1..n.
    * Class: m = n*s - d, so m = -d (mod n), and a prefix is a strip of class
      k exactly when -d = k (mod n).
    * Termination: the grade is (e2 - k(n-k)) / 2n <= qmax exactly when
      e2 <= k(n-k) + 2n*qmax = e2_max.  The first column adds b(n-b) >= n-1
      >= 1, and every later one at least 2d + n - 1 >= n + 1 (b(2d+n-b) is
      concave in b, and its values at b = 1 and b = n are 2d+n-1 and 2dn),
      so a prefix above e2_max has no extension within it.
    * Completion: a prefix of class r != k is only a stage on the way.  Its
      extensions to class k append heights b_i with sum_i b_i = k - r (mod
      n), so sum_i b_i >= need = (k - r) mod n, not every b_i is n, and the
      prefix's d only grows; they therefore add at least
      sum_i b_i(2d + n - b_i) >= 2d*need + n - 1 to e2, and a prefix that
      cannot afford that is dropped with its whole subtree.

    Schur values.  A ribbon's skew Schur function is unchanged by a rotation
    of 180 degrees, which reverses its columns.  So the column recurrence of
    `symfunc.strip_schur`, read with the columns in the order they are
    appended, gives the Schur function V_j of each prefix: appending height
    b to a prefix of j columns with heights c_1..c_j gives
    V_{j+1} = sum_t (-1)^t e_{b + c_j + ... + c_{j-t+1}} V_{j-t}, over the
    t for which that height is at most n, since e_h = 0 for h > n.  As
    b >= 1, only the tail, the run of latest columns whose heights sum to at
    most n - 1, and the values of the last len(tail) + 1 prefixes are read.

    Merging.  The future of a prefix (the e2 it may still add, the class it
    ends in, and the recurrence) depends only on (e2, d, tail), and the
    recurrence is linear in the carried values.  So prefixes with equal
    states are merged by adding their vectors of values, and the states are
    processed in increasing e2, which every column raises: a state is
    complete before it is extended.  Each e2 <= e2_max, and d <= e2 (by
    induction, b(2d+n-b) >= n - b), so the number of states is polynomial
    in qmax, while the number of strips is not.

    Monomial basis.  Setting x_1...x_n = 1, that is e_n = 1, is a ring
    homomorphism from the symmetric polynomials in n variables onto the
    W-invariant part of the group ring of the weight lattice.  It maps the
    monomial symmetric function m_nu (Macdonald, Symmetric Functions and
    Hall Polynomials, I.2) to the sum over the Weyl orbit of the dominant
    weight (nu_1 - nu_2, ..., nu_{n-1} - nu_n), and m_nu = e_n^{nu_n}
    m_{nu - nu_n (1^n)}, so the m_nu with nu_n = 0 map onto that basis of
    orbit sums, one to one.  So every value is kept from the start as a
    dict from such a normalized nu to its coefficient of m_nu, each product
    with e_h is taken on the normalized representative by `_times_e`, and
    the sum at each grade is the image of the true one.  The coefficient of
    m_nu is the table's row at every weight of nu's orbit, so the values
    are the table's orbit rows, and no weight is expanded here."""
    table = CharacterTable(n, k, qmax)
    if n < 2:
        raise ValueError("rank must be >= 2")
    base = k * (n - k)
    e2_max = base + 2 * n * qmax
    rows: dict[tuple[int, ...], list[int]] = {}  # normalized nu -> coefficients by grade
    layers = {0: {(0, ()): [({(0,) * n: 1},)]}}  # e2 -> (d, tail) -> value vectors
    for e2 in range(e2_max + 1):
        layer = layers.pop(e2, None)
        if layer is None:
            continue
        rel, rem = divmod(e2 - base, 2 * n)
        for (d, tail), vecs in layer.items():
            vec = vecs[0] if len(vecs) == 1 else _added(vecs)
            if -d % n == k:
                if rem or rel < 0:
                    raise AssertionError(
                        f"a class-{k} strip with 2n*E = {e2} has non-integral "
                        f"grade {Fraction(e2 - base, 2 * n)} over Delta_{k}"
                    )
                for nu, c in vec[-1].items():
                    row = rows.get(nu)
                    if row is None:
                        row = rows[nu] = [0] * (qmax + 1)
                    row[rel] += c
            for b in range(1, n + 1 if d else n):
                grown = e2 + b * (2 * d + n - b)
                d_next = d + n - b
                need = (k + d_next) % n
                if grown + (2 * d_next * need + n - 1 if need else 0) > e2_max:
                    continue
                tail_next, value = _append_column(vec, tail, b, n)
                layers.setdefault(grown, {}).setdefault((d_next, tail_next), []).append(
                    vec[len(vec) - len(tail_next):] + (value,))
    if layers:  # a state put on a layer already swept would be lost
        raise AssertionError(f"states left behind the sweep at 2n*E = {sorted(layers)}")
    table.orbits = {exps_to_fw(nu): row for nu, row in rows.items() if any(row)}
    return table.validate()


@lru_cache(maxsize=None)
def _times_e(nu: tuple[int, ...], h: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """m_nu e_h in n = len(nu) variables, as the pairs (mu, coefficient of
    m_mu), each mu normalized to mu_n = 0 by e_n = 1 (see
    `yangian_decomposition`).

    The coefficient of m_mu in a symmetric polynomial is that of the
    monomial x^mu.  In m_nu e_h, with e_h the sum of x^{1_S} over the
    h-subsets S of the variables, x^mu is x^alpha x^{1_S} for an
    arrangement alpha of nu with alpha + 1_S = mu, and S fixes alpha, so
    c(mu) = #{S : mu - 1_S is an arrangement of nu}, the subset-count rule.
    To read every c(mu) off one pass over the S at nu, count the pairs
    (alpha, S) with alpha + 1_S an arrangement of mu both ways.  Permuting
    alpha and S together shows that each of the |W nu| arrangements alpha
    has N(mu) = #{S : nu + 1_S sorts to mu} of them, and each of the
    |W mu| arrangements beta = alpha + 1_S of mu has c(mu) of them, so
    c(mu) = N(mu) |W nu| / |W mu|, with |W nu| the number of arrangements
    of nu (`affine.orbit_size`).  The 1_S are the exponent vectors of
    `symfunc.elementary(h, n)`.  Memoized: the result is an immutable
    tuple, and each (nu, h) is expanded once."""
    counts: dict[tuple[int, ...], int] = {}
    for ones in elementary(h, len(nu)).terms:
        mu = tuple(sorted(map(add, nu, ones), reverse=True))
        counts[mu] = counts.get(mu, 0) + 1
    size = orbit_size(exps_to_fw(nu))
    return tuple(
        (tuple(p - mu[-1] for p in mu), count * size // orbit_size(exps_to_fw(mu)))
        for mu, count in counts.items()
    )


def _added(vecs) -> tuple[dict, ...]:
    """The entrywise sum of equally long vectors of values in the monomial
    basis; no input dict is changed, since the vectors share their older
    entries."""
    out = []
    for polys in zip(*vecs):
        acc = dict(polys[0])
        get = acc.get
        for poly in polys[1:]:
            for w, c in poly.items():
                acc[w] = get(w, 0) + c
        out.append(acc)
    return tuple(out)


def _append_column(vec, tail: tuple, b: int, n: int):
    """(tail, value) after appending a column of height b to a prefix with
    this tail and values `vec` (`vec[-1]` its own): the value is
    sum_t (-1)^t e_{b + tail[-1] + ... + tail[-t]} vec[-1-t] while that
    height is at most n, and the tail is the longest suffix of tail + (b,)
    whose heights sum to at most n - 1."""
    value: dict = {}
    get = value.get
    height, t = b, 0
    while True:
        poly, sign = vec[-1 - t], -1 if t % 2 else 1
        for nu, c in poly.items():
            c *= sign
            for mu, times in _times_e(nu, height):
                value[mu] = get(mu, 0) + c * times
        t += 1
        if t > len(tail):
            break
        height += tail[-t]
        if height > n:
            break
    tail += (b,)
    total = sum(tail)
    while total >= n:
        total -= tail[0]
        tail = tail[1:]
    return tail, value


def sl2_hw_character(lam: Partition, n_spinons: int) -> SymPoly:
    """prod_{i>=0} h_{m_i} in two variables, with m_0 = N - l(lambda)."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if len(lam) > n_spinons:
        raise ValueError("need l(lambda) <= N")
    mult = lam.multiplicities()
    poly = complete(n_spinons - len(lam), 2)  # the m_0 factor
    for i in sorted(mult):
        poly = poly * complete(mult[i], 2)
    return poly


def sl2_yangian_decomposition(k: int, qmax: int) -> CharacterTable:
    """ch = sum_{N = k mod 2} sum_{l(lambda) <= N} q^{N^2/4 + |lambda|}
    prod h_{m_i^lambda}, graded relative to Delta_k.

    prod_i h_{m_i} in two variables, with m_0 = N - l(lambda), depends only
    on the multiset of the m_i, its class.  So for each N the partitions
    are counted by (|lambda|, class), and each class's weight projection is
    added once per size, times its count, instead of once per partition.
    The sum is kept weight by weight and folded into orbits by
    `CharacterTable.from_weights`, which checks that it is W-invariant."""
    rows: dict[tuple[int, ...], list[int]] = {}
    for total, base in sl2_spinon_grades(k, qmax):
        projections: dict[tuple[int, ...], dict] = {}
        counts: dict[tuple[int, tuple[int, ...]], int] = {}
        for size in range(qmax - base + 1):
            for lam in partitions_of(size, max_len=total):
                key = tuple(sorted([total - len(lam), *lam.multiplicities().values()]))
                if key not in projections:
                    projections[key] = weight_projection(sl2_hw_character(lam, total))
                counts[size, key] = counts.get((size, key), 0) + 1
        for (size, key), count in counts.items():
            for w, c in projections[key].items():
                row = rows.get(w)
                if row is None:
                    row = rows[w] = [0] * (qmax + 1)
                row[base + size] += c * count
    return CharacterTable.from_weights(2, k, qmax, rows).validate()


def hw_module_table(lam: Partition, n_spinons: int):
    """(energy, character, strip, drinfeld) for the (lambda, N) module; the
    character is cross-checked against the border-strip route here, and the
    energy E(strip) = |lambda| + N^2/4 by `strips.sl2_partition_to_strip`."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    energy_val = lam.size() + Fraction(n_spinons * n_spinons, 4)
    character = sl2_hw_character(lam, n_spinons)
    strip = sl2_partition_to_strip(lam, n_spinons)
    # the strip Schur polynomial carries one extra (x1 x2) factor per row pair,
    # invisible in sl2 weights: deg s_kappa = |kappa| vs deg character = N
    extra = strip.size() - n_spinons
    assert extra % 2 == 0 and extra >= 0
    lifted = character
    for _ in range(extra // 2):
        lifted = lifted * elementary(2, 2)
    if strip_schur(strip, 2) != lifted:
        raise AssertionError(f"strip character mismatch for ({lam}, {n_spinons})")
    drinfeld = drinfeld_tame(strip.shape, 2)
    return energy_val, character, strip, drinfeld
