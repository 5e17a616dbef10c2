"""A two-name pair's law on its (m, n) letter-count grid, in pure Python.

When every cumulant of a pair (a, b), a left and b right, depends only on a
word's counts m of left and n of right letters, so does every moment, and a
table is a grid {(m, n): value} over 1 <= m + n <= cap: (cap+1)(cap+2)/2 - 1
values where a word row holds 2^(cap+1) - 2. A law built from a jump pair
(`JumpLaw.grid`) is such a grid. Write M(u, v) = sum M_mn u^m v^n with
M_00 = 1, M_a(u) = M(u, 0), M_b(v) = M(0, v) and R_mix(z, w) =
sum_{m,n>=1} kappa_mn z^m w^n. Each face obeys the free relation
M_a(u) = 1 + sum_m kappa_m0 (u M_a(u))^m, and the mixed part Voiculescu's
two-variable partial R-transform identity (Ann. IHP 2016; derived from the
BNC combinatorics by Skoufranis, Pacific J. Math. 2016)

    M(u, v) = M_a(u) M_b(v) / (1 - R_mix(u M_a(u), v M_b(v))).

Series are truncated past total degree cap. A univariate series is a list
of cap + 1 coefficients, a bivariate one the triangle t[i][j], i + j <= cap.
The module shares no code with `cumulants.transform_rows`, the word-level
transform that serves tables given word by word; the limit harnesses of
`poisson.py` read it.
"""

from __future__ import annotations


def _tri(cap: int, fn) -> list[list[float]]:
    return [[fn(i, j) for j in range(cap + 1 - i)] for i in range(cap + 1)]


def _mul(f, g) -> list[float]:
    return [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(len(f))]


def _powers(f) -> list[list[float]]:
    """[f^0, f^1, ..., f^cap] for a series of cap + 1 coefficients."""
    out = [[1.0] + [0.0] * (len(f) - 1)]
    for _ in f[1:]:
        out.append(_mul(out[-1], f))
    return out


def _reciprocal(f) -> list[float]:
    """1 / f for f[0] = 1."""
    out = [1.0]
    for n in range(1, len(f)):
        out.append(-sum(f[i] * out[n - i] for i in range(1, n + 1)))
    return out


def _free_moments(kappa) -> list[float]:
    """M_a from the free cumulants kappa[1:]: M_n = sum_{s<=n} kappa_s z_s[n]
    with z_s = (u M_a(u))^s, whose column n reads M_a below n only, so each
    column is built once. Each entry adds the products that the last pass of
    the fixed-point iteration (`tests/oracles.py`) adds, in its order."""
    cap = len(kappa) - 1
    m, f = [1.0] + [0.0] * cap, [0.0] * (cap + 1)  # f = u M_a(u)
    z = [[1.0] + [0.0] * cap] + [[0.0] * (cap + 1) for _ in range(cap)]
    for n in range(1, cap + 1):
        f[n] = m[n - 1]
        for s in range(1, cap + 1):
            z[s][n] = sum(z[s - 1][i] * f[n - i] for i in range(n + 1))
        m[n] = sum(kappa[s] * z[s][n] for s in range(1, n + 1))
    return m


def _free_cumulants(m) -> list[float]:
    """The free cumulants of M_a: M_n = sum_{s<=n} kappa_s [u^(n-s)] M_a^s,
    whose s = n term is kappa_n itself."""
    powers, kappa = _powers(m), [0.0]
    for n in range(1, len(m)):
        kappa.append(m[n] - sum(kappa[s] * powers[s][n - s] for s in range(1, n)))
    return kappa


def _compose(k, z, w) -> list[list[float]]:
    """The mixed part of k (m, n >= 1) at z(u), w(v): z[m] = z(u)^m and
    w[n] = w(v)^n, each without a constant term."""
    return _tri(len(k) - 1, lambda i, j: sum(
        k[m][n] * z[m][i] * w[n][j] for m in range(1, i + 1) for n in range(1, j + 1)))


def _inverse(c) -> list[list[float]]:
    """1 / (1 - c) for a bivariate c without a constant term."""
    e = [[] for _ in c]
    for i, row in enumerate(c):
        for j in range(len(row)):
            e[i].append(sum(c[k][l] * e[i - k][j - l] for k in range(i + 1)
                            for l in range(j + 1) if k or l) if i or j else 1.0)
    return e


def _outer_times(a, b, e) -> list[list[float]]:
    """a(u) b(v) e(u, v)."""
    return _tri(len(e) - 1, lambda i, j: sum(
        a[k] * b[l] * e[i - k][j - l] for k in range(i + 1) for l in range(j + 1)))


def _moments(k) -> list[list[float]]:
    ma, mb = _free_moments([row[0] for row in k]), _free_moments(k[0])
    mix = _compose(k, _powers([0.0] + ma[:-1]), _powers([0.0] + mb[:-1]))
    return _outer_times(ma, mb, _inverse(mix))


def _cumulants(m) -> list[list[float]]:
    ma, mb = [row[0] for row in m], m[0]
    ka, kb = _free_cumulants(ma), _free_cumulants(mb)
    # u(z) = z / (1 + R_a(z)) inverts z = u M_a(u), as M_a(u) = 1 + R_a(z)
    u, v = ([0.0] + _reciprocal([1.0] + kappa[1:])[:-1] for kappa in (ka, kb))
    # M_a M_b / M, with 1 / M = 1 / (1 - (1 - M)); 1 minus it, R_mix(z, w)
    # at z = u M_a(u) and w = v M_b(v), has mixed terms only
    ratio = _outer_times(ma, mb, _inverse(_tri(len(m) - 1, lambda i, j: -m[i][j])))
    k = _compose(_tri(len(m) - 1, lambda i, j: -ratio[i][j]), _powers(u), _powers(v))
    for n in range(1, len(m)):
        k[n][0], k[0][n] = ka[n], kb[n]
    return k


def transform_grids(grids, to_cumulants: bool) -> list[dict]:
    """Cumulant grids from moment grids (to_cumulants) or moment grids from
    cumulant grids, each a dict {(m, n): value} over 1 <= m + n <= cap."""
    out = []
    for grid in grids:
        cap = max(map(sum, grid))
        t = _tri(cap, lambda i, j: grid[i, j] if i or j else 1.0)
        t = _cumulants(t) if to_cumulants else _moments(t)
        out.append({(i, j): x for i, row in enumerate(t) for j, x in enumerate(row)
                    if i or j})
    return out
