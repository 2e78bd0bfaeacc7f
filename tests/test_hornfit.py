"""Bounded-degree Horn fitting: positive fits, failure certificates, errors."""

import itertools
from fractions import Fraction

import pytest

from indephorn.graph import Graph, make_complete, make_cycle, make_empty, make_path
from indephorn.hornfit import (
    DirectionFailure,
    DirectionFit,
    InsufficientDataError,
    check_nonvanishing,
    fit_ratio,
    horn_check,
    horn_check_graph,
)
from indephorn.poly import MultiPoly, independence_polynomial
from indephorn.series import TruncatedSeries, invert


def inverse_lattice(g, order):
    return invert(independence_polynomial(g), order).unsigned()


def test_nonvanishing_k3():
    assert check_nonvanishing(inverse_lattice(make_complete(3), 4))


def test_nonvanishing_c4():
    assert check_nonvanishing(inverse_lattice(make_cycle(4), 4))


def test_nonvanishing_detects_zero():
    lattice = inverse_lattice(make_complete(2), 2)
    broken = dict(lattice.coeffs)
    del broken[(1, 0)]
    assert not check_nonvanishing(TruncatedSeries(2, 2, broken))


def test_fit_k2_direction_1():
    fit = fit_ratio(inverse_lattice(make_complete(2), 8), 1, 1)
    assert isinstance(fit, DirectionFit)
    # P/Q must equal (m1+m2+1)/(m1+1) up to a common scalar
    p_ref = MultiPoly(
        2, {(0, 0): Fraction(1), (1, 0): Fraction(1), (0, 1): Fraction(1)}
    )
    q_ref = MultiPoly(2, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    scale = fit.q.terms[(0, 0)]
    assert fit.p * q_ref == p_ref * fit.q
    assert fit.q == MultiPoly.constant(2, scale) * q_ref


def test_fit_empty_graph_constant():
    for i in (1, 2):
        fit = fit_ratio(inverse_lattice(make_empty(2), 8), i, 1)
        assert isinstance(fit, DirectionFit)
        assert fit.p == fit.q


def test_c4_failure_bounded_degree():
    lattice = inverse_lattice(make_cycle(4), 8)
    results = [fit_ratio(lattice, i, 4) for i in range(1, 5)]
    assert any(isinstance(r, DirectionFailure) for r in results)


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_ratio(inverse_lattice(make_complete(2), 2), 1, 4)


def test_horn_check_chordal_graphs_small():
    for g in (make_path(3), make_complete(3), make_empty(3)):
        report = horn_check_graph(g, 6, 4)
        assert report.all_fit
        assert report.verdict().startswith("Horn up to")


def test_horn_check_c5_failure():
    report = horn_check_graph(make_cycle(5), 7, 4)
    assert not report.all_fit
    assert "no bounded fit" in report.verdict()


def test_fit_at_origin_matches_first_coefficient():
    g = make_path(3)
    lattice = inverse_lattice(g, 6)
    report = horn_check(lattice, 4)
    for fit in report.results:
        e = tuple(1 if j == fit.direction - 1 else 0 for j in range(3))
        origin = (0, 0, 0)
        assert (
            fit.p.evaluate(origin) / fit.q.evaluate(origin)
            == lattice.coefficient(e)
        )


def test_scale_invariance():
    lattice = inverse_lattice(make_path(3), 6)
    scaled = TruncatedSeries(
        3, 6, {m: Fraction(3, 7) * c for m, c in lattice.coeffs.items()}
    )
    a = fit_ratio(lattice, 2, 3)
    b = fit_ratio(scaled, 2, 3)
    assert isinstance(a, DirectionFit) and isinstance(b, DirectionFit)
    assert a.p * b.q == b.p * a.q


def test_fit_monotone_in_degree():
    lattice = inverse_lattice(make_complete(2), 8)
    low = fit_ratio(lattice, 1, 1)
    high = fit_ratio(lattice, 1, 3)
    assert isinstance(high, DirectionFit)
    assert low.p * high.q == high.p * low.q


def test_every_returned_fit_verifies():
    lattice = inverse_lattice(make_cycle(3), 6)
    report = horn_check(lattice, 4)
    for fit in report.results:
        i = fit.direction
        for m in lattice.coeffs:
            if m[i - 1] == lattice.order:
                continue
            m2 = list(m)
            m2[i - 1] += 1
            qv = fit.q.evaluate(m)
            assert qv != 0
            assert lattice.coefficient(tuple(m2)) * qv == lattice.coefficient(
                m
            ) * fit.p.evaluate(m)


@pytest.mark.parametrize("order, degree", [(4, 4), (3, 3)])
def test_degree_at_box_order_is_insufficient_data(order, degree):
    # at d >= N, Q = prod_{k<N} (m_i - k) with P = 0 vanishes on every
    # sample, so no failure there could be certified
    with pytest.raises(InsufficientDataError):
        horn_check_graph(make_cycle(4), order, degree)
