"""Bounded-degree Horn fitting: positive fits, failure certificates, errors."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indephorn.graph import Graph, make_complete, make_cycle, make_empty, make_path
from indephorn.hornfit import (
    DirectionFailure,
    DirectionFit,
    InsufficientDataError,
    _PRIMES,
    _integer_lattice,
    _rational_reconstruct,
    _verify_fit,
    check_nonvanishing,
    fit_ratio,
    horn_check,
    horn_check_graph,
)
from indephorn.poly import MultiPoly, independence_polynomial
from indephorn.series import TruncatedSeries, from_poly, invert


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


def test_negative_degree_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        fit_ratio(inverse_lattice(make_path(2), 3), 1, -1)


@pytest.mark.parametrize("p", _PRIMES)
def test_rational_reconstruct_at_the_bound(p):
    bound = math.isqrt(p // 2)
    for frac in (Fraction(bound, bound - 1), Fraction(-(bound - 1), bound)):
        a = frac.numerator * pow(frac.denominator, -1, p) % p
        assert _rational_reconstruct(a, p) == frac


def test_vanishing_lattice_is_not_called_non_horn():
    # (1+x1)^2 (1+x2) has binomial cells, zero beyond m = (2, 1), and still
    # satisfies the two-term relation in both directions
    one, x1, x2 = MultiPoly.one(2), MultiPoly.var(2, 1), MultiPoly.var(2, 2)
    lattice = from_poly((one + x1) * (one + x1) * (one + x2), 4)
    report = horn_check(lattice, 2)
    assert not report.nonvanishing and report.results == ()
    assert report.verdict() == (
        "vanishing coefficient in the box (N=4): the ratio fit does not apply"
    )
    cells = _integer_lattice(lattice.array)
    assert _verify_fit(cells, 1, one + one - x1, one + x1)
    assert _verify_fit(cells, 2, one - x2, one + x2)


# --- the Fraction verifier the integer one replaced, as an oracle ----------


def fraction_grid_eval(poly, order):
    """Evaluate `poly` at every point of {0..order}^nvars (object array)."""
    nv = poly.nvars
    shape = (order + 1,) * nv
    pts = np.arange(order + 1, dtype=object)
    out = np.zeros(shape, dtype=object)
    for m, c in poly.terms.items():
        val = np.full(shape, c, dtype=object)
        for j, e in enumerate(m):
            if e:
                axis = [1] * nv
                axis[j] = order + 1
                val = val * (pts**e).reshape(axis)
        out = out + val
    return out


def oracle_verify_fit(lattice, direction, p_poly, q_poly):
    order, nv, c = lattice.order, lattice.nvars, lattice.array
    ax = direction - 1
    lo = tuple(slice(0, order) if j == ax else slice(None) for j in range(nv))
    hi = tuple(slice(1, order + 1) if j == ax else slice(None) for j in range(nv))
    qv = fraction_grid_eval(q_poly, order)[lo]
    if np.any(qv == 0):
        return False
    pv = fraction_grid_eval(p_poly, order)[lo]
    return bool(np.all(c[hi] * qv == c[lo] * pv))


SMALL_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=3,
)


@st.composite
def candidate_fits(draw):
    """A K_n or empty-graph lattice (optionally scaled by 3/7), a direction
    and a candidate (P, Q): the known ratio times a common factor k*R, its
    P + 1 mutant, or a random pair."""
    nvars = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4 if nvars < 3 else 3))
    complete = draw(st.booleans())
    i = draw(st.integers(1, nvars))
    g = (make_complete if complete else make_empty)(nvars)
    lattice = inverse_lattice(g, order)
    scale = draw(st.sampled_from([Fraction(1), Fraction(3, 7)]))
    if scale != 1:
        lattice = TruncatedSeries(
            nvars, order, {m: scale * c for m, c in lattice.coeffs.items()}
        )

    def poly():
        return MultiPoly(nvars, {m[:nvars]: c for m, c in draw(SMALL_POLYS).items()})

    one = MultiPoly.one(nvars)
    if complete:
        # c_{m+e_i} (m_i + 1) = c_m (|m| + 1) for the multinomial lattice
        p = sum((MultiPoly.var(nvars, k) for k in range(1, nvars + 1)), one)
        q = one + MultiPoly.var(nvars, i)
    else:
        p = q = one
    kind = draw(st.sampled_from(["true", "mutant", "random"]))
    if kind == "random":
        return lattice, i, poly(), poly(), kind, None
    factor = poly() * MultiPoly.constant(
        nvars, draw(st.fractions(min_value=-5, max_value=5).filter(bool))
    )
    p, q = factor * p, factor * q
    if kind == "mutant":
        p = p + one
    return lattice, i, p, q, kind, factor


@settings(max_examples=80)
@given(candidate_fits())
def test_integer_verifier_matches_fraction_oracle(case):
    lattice, i, p, q, kind, factor = case
    got = _verify_fit(_integer_lattice(lattice.array), i, p, q)
    assert got == oracle_verify_fit(lattice, i, p, q)
    if kind == "mutant":
        assert not got
    if kind == "true":
        assert got == bool(np.all(fraction_grid_eval(factor, lattice.order) != 0))


def test_integer_lattice_clears_denominators():
    lattice = inverse_lattice(make_path(3), 3)
    scaled = TruncatedSeries(
        3, 3, {m: Fraction(3, 7) * c for m, c in lattice.coeffs.items()}
    )
    cells = _integer_lattice(scaled.array)
    assert {type(c) for c in cells.flat} == {int}
    assert np.all(cells == 3 * _integer_lattice(lattice.array))
