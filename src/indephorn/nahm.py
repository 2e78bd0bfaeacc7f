"""Nahm systems 1 - z_i = x_i prod_j z_j^{a_{i,j}} for integer matrices:
formal series solutions, the D series by three independent routes, the
Lagrange-inversion monomial formula, and the recursion / independence
polynomial identities for upper-triangular matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chordal import find_peo, nahm_matrix
from .poly import MultiPoly, independence_polynomial
from .series import TruncatedSeries, binomial, box_cells, from_poly, invert


def _check_square(a):
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    return n


def column_form(a, j, m):
    """a_j(m) = sum_i a_{i,j} m_i, the linear form of column j."""
    return sum(a[i][j] * m[i] for i in range(len(a)))


@dataclass(frozen=True)
class NahmSolution:
    matrix: tuple
    order: int
    z: tuple  # n series, each with constant term 1
    d: TruncatedSeries  # prod-free D from the binomial formula


def solve_nahm(a, order):
    """Series solution of the Nahm system of matrix `a` on the given box.

    Fixed-point iteration z_i <- 1 - x_i prod_j z_j^{a_{i,j}}; every pass
    stabilizes at least one more total degree, so n*order+1 passes suffice
    (with early exit on a fixed point).  Negative exponents go through
    series inversion (constant term 1 keeps that well defined).
    """
    n = _check_square(a)
    one = TruncatedSeries.one(n, order)
    z = [one for _ in range(n)]
    for _ in range(n * order + 1):
        new = [one - _nahm_term(a, z, i) for i in range(n)]
        if new == z:
            break
        z = new
    return NahmSolution(
        matrix=tuple(tuple(row) for row in a),
        order=order,
        z=tuple(z),
        d=d_series_binomial(a, order),
    )


def _nahm_term(a, z, i):
    """x_i prod_j z_j^{a_{i,j}} for the series z_1..z_n."""
    n, order = len(a), z[0].order
    prod = TruncatedSeries(n, order, {tuple(int(k == i) for k in range(n)): 1})
    for j in range(n):
        if a[i][j]:
            prod = prod * (z[j] ** a[i][j])
    return prod


def residuals(sol):
    """1 - z_i - x_i prod z_j^{a_{i,j}} for each i; all zero for a solution."""
    one = TruncatedSeries.one(len(sol.matrix), sol.order)
    return [
        one - sol.z[i] - _nahm_term(sol.matrix, sol.z, i)
        for i in range(len(sol.matrix))
    ]


def _binomial_lattice(a, shift, order):
    """sum_m (-1)^{|m|} prod_j binom(shift_j + a_j(m), m_j) x^m on the box."""
    n = len(a)
    out = np.zeros((order + 1,) * n, dtype=object)
    for m in box_cells(n, order):
        c = Fraction(1)
        for j in range(n):
            c *= binomial(shift[j] + column_form(a, j, m), m[j])
            if not c:
                break
        out[m] = -c if sum(m) % 2 else c
    return TruncatedSeries._of(n, order, out)


def d_series_binomial(a, order):
    """D = sum_m (-1)^{|m|} prod_j binom(a_j(m), m_j) x^m, evaluated directly.

    The column linear forms use a_j(m) = sum_i a_{i,j} m_i.
    """
    n = _check_square(a)
    return _binomial_lattice(a, (0,) * n, order)


def _det_series(mat):
    """Determinant of a square matrix of TruncatedSeries, by expansion over
    column subsets (memoized minors; no divisions)."""
    n = len(mat)
    shape_one = TruncatedSeries.one(mat[0][0].nvars, mat[0][0].order)
    memo = {frozenset(): shape_one}

    def minor(cols):
        key = frozenset(cols)
        if key in memo:
            return memo[key]
        row = n - len(cols)
        total = None
        for k, j in enumerate(sorted(cols)):
            sub = minor(key - {j})
            term = mat[row][j] * sub
            if k % 2:
                term = -term
            total = term if total is None else total + term
        memo[key] = total
        return total

    return minor(frozenset(range(n)))


def d_series_det(sol):
    """D from the determinant identity
    D^{-1} = det(Id + diag((1-z_i)/z_i) A)."""
    a = sol.matrix
    n = len(a)
    order = sol.order
    one = TruncatedSeries.one(n, order)
    w = [(one - sol.z[i]) * sol.z[i].invert() for i in range(n)]
    zero = TruncatedSeries(n, order, {})
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = w[i] * a[i][j] if a[i][j] else zero
            if i == j:
                entry = entry + one
            row.append(entry)
        mat.append(row)
    return _det_series(mat).invert()


def lagrange_monomial(sol, s, order=None):
    """z_1^{s_1}...z_n^{s_n} by Lagrange inversion:
    (1/D) sum_m (-1)^{|m|} prod_j binom(s_j + a_j(m), m_j) x^m."""
    a = sol.matrix
    n = len(a)
    if len(s) != n:
        raise ValueError("wrong number of exponents")
    order = sol.order if order is None else order
    return _binomial_lattice(a, s, order) * sol.d.invert()


def _is_unit_upper_triangular(a):
    n = len(a)
    return all(a[i][i] == 1 for i in range(n)) and all(
        a[i][j] == 0 for i in range(n) for j in range(i)
    )


def check_d_recursion(a, order):
    """Verify the peel-off recursion for unit upper-triangular A:
    D(x) = D*(x_i / (1+x_n)^{a_{i,n}}) / (1+x_n)."""
    n = _check_square(a)
    if not _is_unit_upper_triangular(a):
        raise ValueError("recursion requires a unit upper-triangular matrix")
    d = d_series_binomial(a, order)
    if n == 1:
        # base case: D* = 1, D = 1/(1+x_1)
        expect = {(k,): Fraction((-1) ** k) for k in range(order + 1)}
        return d == TruncatedSeries(1, order, expect)
    a_star = [row[: n - 1] for row in a[: n - 1]]
    d_star = d_series_binomial(a_star, order)
    # substitute x_i -> x_i/(1+x_n)^{a_{i,n}}; the n-th variable enters only
    # through the binomial expansions of (1+x_n)^{-k}, exact on the box
    rhs = np.zeros((order + 1,) * n, dtype=object)
    for m_star, c in d_star.coeffs.items():
        k = sum(a[i][n - 1] * m_star[i] for i in range(n - 1)) + 1  # +1: 1/(1+x_n)
        rhs[m_star] = [c * binomial(-k, e) for e in range(order + 1)]
    return d == TruncatedSeries._of(n, order, rhs)


def peo_relabeled(g):
    """Relabel g by a perfect elimination ordering; error if not chordal."""
    from .graph import relabel

    res = find_peo(g)
    if not res.is_chordal:
        raise ValueError("graph is not chordal")
    return relabel(g, res.ordering)


def d_equals_inverse_indep(g, order):
    """For a PEO-labeled chordal graph: D of its Nahm matrix equals the
    series inverse of the independence polynomial."""
    from .chordal import verify_peo

    if not verify_peo(g, tuple(range(1, g.n + 1))):
        raise ValueError("graph is not chordal under its current labeling")
    a = nahm_matrix(g)
    d = d_series_binomial(a, order)
    return d == invert(independence_polynomial(g), order)


def chordal_power_formula(g, s, order):
    """Closed form for I_Gamma^{-s} of a PEO-labeled chordal graph:
    sum_m (-1)^{|m|} prod_j binom(s-1+a_j(m), m_j) x^m."""
    from .graph import relabel

    res = find_peo(g)
    if not res.is_chordal:
        raise ValueError("graph is not chordal")
    # the closed form needs a PEO labeling; compute there and permute back:
    # axis v-1 of the result is the axis of v's position in the ordering
    ordering = list(res.ordering)
    a = nahm_matrix(relabel(g, ordering))
    lattice = _binomial_lattice(a, [Fraction(s) - 1] * g.n, order)
    axes = [ordering.index(v) for v in range(1, g.n + 1)]
    return TruncatedSeries._of(g.n, order, lattice.array.transpose(axes))
