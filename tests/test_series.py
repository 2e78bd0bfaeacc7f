"""Truncated multivariate series: inversion, rational powers, square roots."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from indephorn.graph import make_complete, make_cycle, make_path
from indephorn.poly import MultiPoly, delta_poly, independence_polynomial
from indephorn.series import (
    TruncatedSeries,
    box_cells,
    from_poly,
    invert,
    pow_neg_s,
    sqrt_inv,
)


def one_plus_x1(nvars=1):
    return MultiPoly.one(nvars) + MultiPoly.var(nvars, 1)


def test_from_poly_restriction():
    ts = from_poly(one_plus_x1(), 2)
    assert ts.coeffs == {(0,): 1, (1,): 1}


def test_from_poly_c4_box1():
    ts = from_poly(independence_polynomial(make_cycle(4)), 1)
    assert len(ts.coeffs) == 7


def test_from_poly_zero():
    assert from_poly(MultiPoly.zero(2), 3).coeffs == {}


def test_mul_geometric_inverse():
    geo = TruncatedSeries(1, 4, {(k,): Fraction(-1) ** k for k in range(5)})
    prod = from_poly(one_plus_x1(), 4) * geo
    assert prod.coeffs == {(0,): 1}


def test_mul_identity():
    a = invert(independence_polynomial(make_path(3)), 2)
    one = from_poly(MultiPoly.one(3), 2)
    assert (a * one).coeffs == a.coeffs


def test_mul_shape_mismatch():
    with pytest.raises(ValueError):
        from_poly(MultiPoly.one(1), 2) * from_poly(MultiPoly.one(2), 2)


def test_invert_k2_against_inverse():
    p = independence_polynomial(make_complete(2))
    assert (from_poly(p, 2) * invert(p, 2)).coeffs == {(0, 0): 1}


def test_invert_k2_multinomials():
    inv = invert(independence_polynomial(make_complete(2)), 3)
    for m1 in range(4):
        for m2 in range(4):
            expected = Fraction(-1) ** (m1 + m2) * math.comb(m1 + m2, m1)
            assert inv.coefficient((m1, m2)) == expected


def test_invert_c4_coefficient_14():
    inv = invert(independence_polynomial(make_cycle(4)), 1)
    assert inv.coefficient((1, 1, 1, 1)) == 14
    assert inv.unsigned().coefficient((1, 1, 1, 1)) == 14


def test_invert_geometric():
    inv = invert(one_plus_x1(), 4)
    assert inv.coeffs == {(k,): Fraction(-1) ** k for k in range(5)}


def test_invert_zero_constant_term():
    with pytest.raises(ValueError):
        invert(MultiPoly.var(1, 1), 2)


def test_pow_s1_is_invert():
    for g in (make_path(3), make_cycle(4)):
        p = independence_polynomial(g)
        assert pow_neg_s(p, 1, 2).coeffs == invert(p, 2).coeffs


def test_pow_half_binomials():
    got = pow_neg_s(one_plus_x1(), Fraction(1, 2), 2)
    assert got.coeffs == {(0,): 1, (1,): Fraction(-1, 2), (2,): Fraction(3, 8)}


def test_pow_s0_is_one():
    p = independence_polynomial(make_cycle(4))
    assert pow_neg_s(p, 0, 2).coeffs == {(0, 0, 0, 0): 1}


def test_pow_nonunit_constant_rejected():
    with pytest.raises(ValueError):
        pow_neg_s(MultiPoly.constant(1, Fraction(2)), 1, 2)


def test_sqrt_inv_of_one():
    assert sqrt_inv(MultiPoly.one(2), 3).coeffs == {(0, 0): 1}


def test_sqrt_inv_of_square():
    p = one_plus_x1() * one_plus_x1()
    assert sqrt_inv(p, 3).coeffs == {(k,): Fraction(-1) ** k for k in range(4)}


def test_sqrt_inv_delta_c4():
    got = sqrt_inv(delta_poly(4), 1)
    assert got.unsigned().coefficient((1, 1, 1, 1)) == 16


def test_diagonal_of_c4_inverse():
    inv = invert(independence_polynomial(make_cycle(4)), 3)
    diag = [abs(c) for c in inv.diagonal()]
    # de Bruijn numbers S(4,k): alternating sums of fourth powers of binomials
    expected = [
        sum(
            (-1 if j % 2 else 1) * math.comb(2 * k, k + j) ** 4
            for j in range(-k, k + 1)
        )
        for k in range(4)
    ]
    assert diag == expected == [1, 14, 786, 61340]


def test_diagonal_of_constant():
    assert from_poly(MultiPoly.one(2), 3).diagonal() == [1, 0, 0, 0]


def test_constant_coefficient_of_invert():
    p = MultiPoly.constant(1, Fraction(4)) + MultiPoly.var(1, 1)
    q = p * MultiPoly.constant(1, Fraction(1, 4))  # normalize to constant 1
    assert invert(q, 2).coefficient((0,)) == 1


def test_coefficient_out_of_box():
    with pytest.raises(ValueError):
        from_poly(MultiPoly.one(1), 2).coefficient((3,))


def unit_polys(nvars, max_order=3):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars),
        st.integers(-5, 5).map(Fraction),
        max_size=5,
    ).map(
        lambda d: MultiPoly(
            nvars, {**{m: c for m, c in d.items() if c}, (0,) * nvars: Fraction(1)}
        )
    )


@settings(max_examples=40)
@given(unit_polys(2))
def test_mul_invert_is_one(p):
    n = 4
    assert (from_poly(p, n) * invert(p, n)).coeffs == {(0, 0): 1}


@settings(max_examples=25)
@given(unit_polys(2))
def test_pow_s2_is_squared_inverse(p):
    inv = invert(p, 3)
    assert pow_neg_s(p, 2, 3).coeffs == (inv * inv).coeffs


@settings(max_examples=25)
@given(unit_polys(2))
def test_pow_additivity(p):
    s1, s2 = Fraction(1, 2), Fraction(3, 2)
    lhs = pow_neg_s(p, s1 + s2, 3)
    rhs = pow_neg_s(p, s1, 3) * pow_neg_s(p, s2, 3)
    assert lhs.coeffs == rhs.coeffs


def pow_neg_s_binomial_oracle(p, s, order):
    """Reference route: p = 1 + u, sum binom(-s, k) u^k over the box."""
    nvars = p.nvars
    u = from_poly(p - MultiPoly.one(nvars), order)
    acc = from_poly(MultiPoly.one(nvars), order)
    out = TruncatedSeries(nvars, order, {(0,) * nvars: Fraction(1)})
    coeff = Fraction(1)
    for k in range(1, nvars * order + 1):
        coeff = coeff * (-s - (k - 1)) / k
        acc = acc * u
        if not acc.coeffs:
            break
        out = out + TruncatedSeries(
            nvars, order, {m: coeff * c for m, c in acc.coeffs.items()}
        )
    return out


@settings(max_examples=15)
@given(unit_polys(2))
def test_pow_matches_binomial_oracle(p):
    s = Fraction(1, 2)
    assert pow_neg_s(p, s, 3).coeffs == pow_neg_s_binomial_oracle(p, s, 3).coeffs


def all_labeled_graphs(n):
    import itertools

    from indephorn.graph import Graph

    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def test_inverse_coefficients_positive_integers():
    for g in all_labeled_graphs(4):
        inv = invert(independence_polynomial(g), 2).unsigned()
        for m in box_cells(4, 2):
            c = inv.coefficient(m)
            assert c.denominator == 1 and c >= 1


def test_json_roundtrip():
    inv = invert(independence_polynomial(make_cycle(4)), 2)
    again = TruncatedSeries.from_json(inv.to_json())
    assert again.coeffs == inv.coeffs and again.order == inv.order


# --- reference implementations on {exponent: Fraction} dicts ---------------
# The dict/Fraction routes the dense lattice replaced: the box product, the
# back-substitution inverse and the rational-power recurrence.


def oracle_cells(nvars, order):
    return sorted(
        itertools.product(range(order + 1), repeat=nvars),
        key=lambda m: (sum(m), m),
    )


def oracle_mul(a, b, order):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if max(m, default=0) <= order:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def oracle_invert(p, nvars, order):
    inv0 = 1 / p[(0,) * nvars]
    supp = [(m, c) for m, c in p.items() if any(m)]
    q = {(0,) * nvars: inv0}
    for m in oracle_cells(nvars, order)[1:]:
        s = Fraction(0)
        for t, c in supp:
            r = tuple(a - b for a, b in zip(m, t))
            if min(r) >= 0 and r in q:
                s += c * q[r]
        if s:
            q[m] = -inv0 * s
    return q


def oracle_pow(p, s, nvars, order):
    supp = [(m, c) for m, c in p.items() if any(m)]
    q = {(0,) * nvars: Fraction(1)}
    for m in oracle_cells(nvars, order)[1:]:
        i = next(k for k, e in enumerate(m) if e > 0)
        acc = Fraction(0)
        for t, c in supp:
            r = tuple(a - b for a, b in zip(m, t))
            if min(r) >= 0 and r in q:
                acc += c * (m[i] - t[i] - s * t[i]) * q[r]
        if acc:
            q[m] = -acc / m[i]
    return q


@st.composite
def unit_series(draw, count=1):
    """(nvars, order, [{m: c}, ...]): `count` coefficient dicts with constant
    term 1 on one box in 1-3 variables."""
    nvars = draw(st.integers(1, 3))
    order = draw(st.integers(0, 4 if nvars < 3 else 2))
    out = []
    for _ in range(count):
        coeffs = draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, order)] * nvars),
                st.fractions(min_value=-4, max_value=4, max_denominator=5),
                max_size=5,
            )
        )
        coeffs[(0,) * nvars] = Fraction(1)
        out.append({m: c for m, c in coeffs.items() if c})
    return nvars, order, out


RATIONAL_S = st.one_of(
    st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(-3, 2)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@settings(max_examples=60)
@given(unit_series(), RATIONAL_S)
def test_pow_rational_matches_oracle(data, s):
    nvars, order, (p,) = data
    got = TruncatedSeries(nvars, order, p).pow_rational(s)
    assert got.coeffs == oracle_pow(p, s, nvars, order)


@settings(max_examples=60)
@given(unit_series(), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(-2, 7)]))
def test_invert_matches_oracle(data, c0):
    nvars, order, (p,) = data
    p = {**p, (0,) * nvars: c0}
    got = TruncatedSeries(nvars, order, p).invert()
    assert got.coeffs == oracle_invert(p, nvars, order)


@settings(max_examples=60)
@given(unit_series(count=2))
def test_product_matches_oracle(data):
    nvars, order, (p, q) = data
    got = TruncatedSeries(nvars, order, p) * TruncatedSeries(nvars, order, q)
    assert got.coeffs == oracle_mul(p, q, order)


def test_invert_non_unit_constant():
    p = TruncatedSeries(2, 3, {(0, 0): Fraction(3, 2), (1, 0): 1, (1, 1): -2})
    assert p.invert().coeffs == oracle_invert(p.coeffs, 2, 3)
    assert (p * p.invert()).coeffs == {(0, 0): 1}


def test_float_coefficient_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries(1, 2, {(1,): 0.5})


def test_exponent_length_mismatch_and_out_of_box():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 2, {(1,): 1})
    assert TruncatedSeries(1, 2, {(3,): 1, (1,): 2}).coeffs == {(1,): 2}
