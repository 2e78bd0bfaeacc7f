"""Nahm systems: series solutions and the D-series identity suite."""

import math
from fractions import Fraction

import pytest

from indephorn.chordal import nahm_matrix
from indephorn.graph import Graph, make_complete, make_cycle, make_path
from indephorn.nahm import (
    chordal_power_formula,
    check_d_recursion,
    d_equals_inverse_indep,
    d_series_binomial,
    d_series_det,
    lagrange_monomial,
    peo_relabeled,
    residuals,
    solve_nahm,
)
from indephorn.poly import MultiPoly, independence_polynomial
from indephorn.series import box_cells, from_poly, invert, pow_neg_s

SWAP = ((0, 1), (1, 0))


def figure_graph():
    return Graph(4, [(1, 2), (1, 3), (2, 4), (3, 4), (2, 3)])


def geometric_x1x2(order):
    one_minus = MultiPoly(2, {(0, 0): Fraction(1), (1, 1): Fraction(-1)})
    return invert(one_minus, order)


def test_swap_system_z1():
    sol = solve_nahm(SWAP, 4)
    one_minus_x1 = MultiPoly(2, {(0, 0): Fraction(1), (1, 0): Fraction(-1)})
    expected = from_poly(one_minus_x1, 4) * geometric_x1x2(4)
    assert sol.z[0].coeffs == expected.coeffs


def test_zero_matrix_decouples():
    sol = solve_nahm(((0, 0), (0, 0)), 3)
    assert sol.z[0].coeffs == {(0, 0): 1, (1, 0): -1}
    assert sol.z[1].coeffs == {(0, 0): 1, (0, 1): -1}


def test_scalar_system():
    sol = solve_nahm(((1,),), 5)
    # 1 - z = xz means z = 1/(1+x)
    expected = invert(MultiPoly.one(1) + MultiPoly.var(1, 1), 5)
    assert sol.z[0].coeffs == expected.coeffs


def test_residuals_vanish():
    for a in (SWAP, ((1, 1), (0, 1)), ((2, -1), (1, 1))):
        for r in residuals(solve_nahm(a, 3)):
            assert r.coeffs == {}


def test_non_square_rejected():
    with pytest.raises(ValueError):
        solve_nahm(((0, 1),), 2)


def test_d_binomial_swap():
    d = d_series_binomial(SWAP, 4)
    assert d.coeffs == geometric_x1x2(4).coeffs


def test_d_binomial_k2():
    a = nahm_matrix(make_complete(2))
    d = d_series_binomial(a, 3)
    assert d.coeffs == invert(independence_polynomial(make_complete(2)), 3).coeffs


def test_d_binomial_zero_matrix():
    assert d_series_binomial(((0, 0), (0, 0)), 3).coeffs == {(0, 0): 1}


def test_d_det_agrees_swap():
    sol = solve_nahm(SWAP, 3)
    assert d_series_det(sol).coeffs == d_series_binomial(SWAP, 3).coeffs


def test_d_det_agrees_cyclic_c4():
    from indephorn.cycletools import cyclic_matrix

    a = cyclic_matrix(4)
    sol = solve_nahm(a, 2)
    assert d_series_det(sol).coeffs == d_series_binomial(a, 2).coeffs


def test_d_det_zero_matrix():
    sol = solve_nahm(((0, 0), (0, 0)), 2)
    assert d_series_det(sol).coeffs == {(0, 0): 1}


def test_lagrange_zero_exponents():
    sol = solve_nahm(SWAP, 3)
    assert lagrange_monomial(sol, (0, 0)).coeffs == {(0, 0): 1}


def test_lagrange_swap_z1():
    sol = solve_nahm(SWAP, 3)
    assert lagrange_monomial(sol, (1, 0)).coeffs == sol.z[0].coeffs


def test_lagrange_l3_full_product():
    a = nahm_matrix(make_path(3))
    sol = solve_nahm(a, 3)
    assert lagrange_monomial(sol, (1, 1, 1)).coeffs == d_series_binomial(a, 3).coeffs


def test_lagrange_general_exponents():
    sol = solve_nahm(SWAP, 3)
    for s in ((2, 1), (-1, 0), (1, -2), (2, -2)):
        direct = from_poly(MultiPoly.one(2), 3)
        for i, e in enumerate(s):
            factor = sol.z[i] if e > 0 else sol.z[i].invert()
            for _ in range(abs(e)):
                direct = direct * factor
        assert lagrange_monomial(sol, s).coeffs == direct.coeffs


def test_d_recursion_k3():
    assert check_d_recursion(nahm_matrix(make_complete(3)), 3)


def test_d_recursion_l4():
    assert check_d_recursion(nahm_matrix(make_path(4)), 2)


def test_d_recursion_scalar():
    assert check_d_recursion(((1,),), 4)


def test_d_recursion_rejects_non_triangular():
    with pytest.raises(ValueError):
        check_d_recursion(SWAP, 2)


def test_d_equals_inverse_line_graphs():
    for n in range(2, 7):
        assert d_equals_inverse_indep(make_path(n), 3)
    # the coefficients are consecutive-pair binomial products
    inv = invert(independence_polynomial(make_path(3)), 2).unsigned()
    for m in box_cells(3, 2):
        expected = math.comb(m[0] + m[1], m[0]) * math.comb(m[1] + m[2], m[2])
        assert inv.coefficient(m) == expected


def test_d_equals_inverse_complete_graphs():
    for n in range(2, 6):
        assert d_equals_inverse_indep(make_complete(n), 2)


def test_d_equals_inverse_figure_graph():
    assert d_equals_inverse_indep(figure_graph(), 3)


def test_d_equals_inverse_rejects_non_chordal():
    with pytest.raises(ValueError):
        d_equals_inverse_indep(make_cycle(4), 2)


def test_chordal_power_s1_reduces_to_d():
    g = peo_relabeled(figure_graph())
    assert (
        chordal_power_formula(g, 1, 2).coeffs
        == d_series_binomial(nahm_matrix(g), 2).coeffs
    )


def test_chordal_power_k2_s2():
    got = chordal_power_formula(make_complete(2), 2, 2)
    expected = pow_neg_s(independence_polynomial(make_complete(2)), 2, 2)
    assert got.coeffs == expected.coeffs
    assert got.unsigned().coefficient((1, 1)) == 6


def test_chordal_power_l3_half():
    got = chordal_power_formula(make_path(3), Fraction(1, 2), 2)
    expected = pow_neg_s(independence_polynomial(make_path(3)), Fraction(1, 2), 2)
    assert got.coeffs == expected.coeffs


def test_chordal_power_nonvanishing():
    for s in (Fraction(1, 2), Fraction(2), Fraction(-3, 2)):
        ts = chordal_power_formula(make_path(3), s, 2)
        for m in box_cells(3, 2):
            assert ts.coefficient(m) != 0
