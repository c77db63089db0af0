"""Yangian-side combinatorics: Drinfel'd polynomials, GZ schemes, and the
border-strip decompositions of the level-1 affine characters."""
from __future__ import annotations

from fractions import Fraction

from .affine import CharacterTable, conformal_dimension
from .partitions import Partition, SkewShape, partitions_of
from .strips import energy, reduced_strips, sl2_partition_to_strip
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
            upper, lower = rows[m], rows[m - 1]
            if len(rows[m]) > n_spinons + m:
                raise ValueError(f"row {m} too long: {rows[m]}")
            top = max(len(upper), len(lower)) + 1
            for i in range(1, top + 1):
                if not (upper[i] >= lower[i] >= upper[i + 1]):
                    raise ValueError(
                        f"interleaving fails between rows {m - 1} and {m} at "
                        f"column {i}"
                    )
        if len(rows[0]) > n_spinons:
            raise ValueError("bottom row too long")
        self.rows = rows
        self.n_spinons = n_spinons

    def __eq__(self, other):
        if not isinstance(other, GZScheme):
            return NotImplemented
        return self.rows == other.rows and self.n_spinons == other.n_spinons

    def __hash__(self):
        return hash((self.rows, self.n_spinons))

    def __repr__(self):
        return f"GZScheme({[list(p.parts) for p in self.rows]}, N={self.n_spinons})"


def gz_schemes(lam: Partition, mu: Partition, n: int, n_spinons: int) -> list[GZScheme]:
    """All interleaving-admissible chains from mu (row 0) to lam (row n)."""
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
        GZScheme(chain + [lam], n_spinons)
        for chain in chains
        if _interleaves(lam, chain[-1]) and len(lam) <= n_spinons + n
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
    eps = [sums[m] - sums[m - 1] for m in range(1, len(sums))]
    return tuple(eps[j] - eps[j + 1] for j in range(len(eps) - 1))


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
    """ch L(Lambda_k) = sum over reduced border strips of class k of
    q^{E(kappa)} s_kappa, graded relative to Delta_k.

    Energies are kept as 2n*E; 2n*Delta_k = k(n-k)."""
    table = CharacterTable(n, k, qmax)
    base = k * (n - k)
    for strip, e2 in reduced_strips(n, k, base + 2 * n * qmax):
        rel, rem = divmod(e2 - base, 2 * n)
        if rem or rel < 0:
            raise AssertionError(
                f"strip {strip} has non-integral grade "
                f"{Fraction(e2 - base, 2 * n)} over Delta_{k}"
            )
        poly = strip_schur(strip, n)
        for w, c in weight_projection(poly).items():
            table.add(w, rel, c)
    return table.prune().validate()


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
    prod h_{m_i^lambda}, graded relative to Delta_k."""
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    table = CharacterTable(2, k, qmax)
    delta = table.delta
    total = k
    while True:
        base = Fraction(total * total, 4) - delta
        if base > qmax:
            break
        assert base.denominator == 1 and base >= 0
        budget = qmax - int(base)
        # prod h_{m_i} depends only on the multiset {m_0, m_1, ...}
        projections: dict[tuple[int, ...], dict] = {}
        for size in range(budget + 1):
            degree = int(base) + size
            for lam in partitions_of(size, max_len=total):
                key = tuple(sorted([total - len(lam), *lam.multiplicities().values()]))
                if key not in projections:
                    projections[key] = weight_projection(sl2_hw_character(lam, total))
                for w, c in projections[key].items():
                    table.add(w, degree, c)
        total += 2
    return table.prune().validate()


def hw_module_table(lam: Partition, n_spinons: int):
    """(energy, character, strip, drinfeld) for the (lambda, N) module; the
    energy and character are cross-checked against the border-strip route."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    energy_val = lam.size() + Fraction(n_spinons * n_spinons, 4)
    character = sl2_hw_character(lam, n_spinons)
    strip = sl2_partition_to_strip(lam, n_spinons)
    if energy(strip) != energy_val:
        raise AssertionError(
            f"strip energy {energy(strip)} != |lambda| + N^2/4 = {energy_val}"
        )
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
