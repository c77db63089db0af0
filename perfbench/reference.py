"""Independent reference for level-1 affine sl(n) character tables.

Imports nothing from `spinonchars`.  At level 1 every weight lambda of class k
carries the string function q^{|lambda|^2/2 - Delta_k} / (q)_oo^{n-1}, and no
other weight appears.  A table printed by `spinonchars char --format json`
is checked row by row against that closed form:

  * partition numbers come from Euler's pentagonal recurrence, and
    1/(q)_oo^{n-1} is their own convolution power;
  * |lambda|^2 comes from the inverse Cartan matrix min(i,j) - ij/n;
  * "every weight appears" is checked by counting: the number of class-k
    weights at each relative degree d is the number of c in Z^n with
    sum c = k and sum c^2 = k + 2d, read off a theta-series product.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def partition_numbers(m: int) -> tuple[int, ...]:
    """p(0..m) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * m
    for i in range(1, m + 1):
        total, j = 0, 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > i:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[i - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= i:
                total += sign * p[i - g2]
            j += 1
        p[i] = total
    return tuple(p)


@lru_cache(maxsize=None)
def inverse_euler_power(power: int, qmax: int) -> tuple[int, ...]:
    """Coefficients of 1/(q)_oo^power up to q^qmax, as a convolution power."""
    p = partition_numbers(qmax)
    out = [1] + [0] * qmax
    for _ in range(power):
        out = [sum(out[i] * p[d - i] for i in range(d + 1)) for d in range(qmax + 1)]
    return tuple(out)


def norm_times_n(weight, n: int) -> int:
    """n * |lambda|^2 for lambda in fundamental-weight coordinates, from the
    Gram matrix (Lambda_i, Lambda_j) = min(i,j) - ij/n."""
    total = 0
    for i, mi in enumerate(weight, start=1):
        if mi:
            for j, mj in enumerate(weight, start=1):
                if mj:
                    total += mi * mj * (n * min(i, j) - i * j)
    return total


@lru_cache(maxsize=None)
def weights_per_degree(n: int, k: int, qmax: int) -> tuple[int, ...]:
    """Number of class-k weights at each relative degree 0..qmax.

    A class-k weight is (c_1-c_2, ..., c_{n-1}-c_n) for exactly one c in Z^n
    with sum c = k, and its relative degree is (sum c^2 - k)/2.  The counts
    are coefficients of prod_{i<=n} sum_c z^c q^{c^2}."""
    top = k + 2 * qmax
    reach = 0
    while (reach + 1) ** 2 <= top:
        reach += 1
    # state: (sum c, sum c^2) -> number of partial vectors
    states = {(0, 0): 1}
    for _ in range(n):
        nxt: dict[tuple[int, int], int] = {}
        for (s, sq), cnt in states.items():
            for c in range(-reach, reach + 1):
                q = sq + c * c
                if q <= top:
                    key = (s + c, q)
                    nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    out = [0] * (qmax + 1)
    for (s, sq), cnt in states.items():
        if s == k and (sq - k) % 2 == 0 and sq >= k:
            out[(sq - k) // 2] += cnt
    return tuple(out)


def check_table(doc, n: int, k: int, qmax: int) -> str | None:
    """None if `doc` (a parsed `char --format json` table) is the level-1
    character of L(Lambda_k) truncated at qmax; otherwise the first fault."""
    delta = Fraction(k * (n - k), 2 * n)
    head = {"n": n, "k": k, "delta": f"{delta.numerator}/{delta.denominator}",
            "qmax": qmax}
    for key, want in head.items():
        if doc.get(key) != want:
            return f"header {key}: {doc.get(key)!r} != {want!r}"
    string_fn = inverse_euler_power(n - 1, qmax)
    seen = [0] * (qmax + 1)
    previous = None
    for row in doc["rows"]:
        weight, coeffs = tuple(row["weight"]), row["coeffs"]
        if len(weight) != n - 1:
            return f"weight {list(weight)} has the wrong length"
        if previous is not None and weight <= previous:
            return f"weight {list(weight)} out of order or repeated"
        previous = weight
        if sum(i * m for i, m in enumerate(weight, start=1)) % n != k:
            return f"weight {list(weight)} not in class {k} mod {n}"
        twice_degree, rest = divmod(norm_times_n(weight, n) - k * (n - k), n)
        if rest or twice_degree % 2 or not 0 <= twice_degree // 2 <= qmax:
            return f"weight {list(weight)} outside the truncation"
        d0 = twice_degree // 2
        want = [0] * d0 + list(string_fn[: qmax + 1 - d0])
        if coeffs != want:
            bad = next(d for d in range(qmax + 1)
                       if d >= len(coeffs) or coeffs[d] != want[d])
            return f"weight {list(weight)} q^{bad}: coefficient differs"
        seen[d0] += 1
    expected = weights_per_degree(n, k, qmax)
    for d in range(qmax + 1):
        if seen[d] != expected[d]:
            return f"degree {d}: {seen[d]} weights, expected {expected[d]}"
    return None
