"""Cycle-graph machinery: the 2x2 transfer matrix, Carlitz's inverse
square-root expansion, the Laurent generating series R(z;x) of the lattice
coefficients, the inverse-expansion formula, de Bruijn diagonal numbers,
the generalized Dixon identity, quadratic-extension solutions of the cyclic
Nahm system, and the Horn-Kapranov parametrization checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .nahm import d_series_binomial, residuals, solve_nahm
from .poly import MultiPoly, cycle_indep_poly, delta_poly, fibonacci_poly
from .series import TruncatedSeries, box_cells, from_poly, invert, pow_neg_s


def cyclic_matrix(n):
    """Circulant 0/1 matrix of the cyclic Nahm system:
    a_{i,j} = 1 iff j = i or j = i-1 (mod n)."""
    return tuple(
        tuple(1 if (j == i or (i - j) % n == 1) else 0 for j in range(n))
        for i in range(n)
    )


def cyclic_nahm(n, order):
    """Series solution of the cyclic Nahm system 1 - z_i = x_i z_i z_{i-1}."""
    if n < 2:
        raise ValueError("cyclic system needs n >= 2")
    return solve_nahm(cyclic_matrix(n), order)


# --- transfer matrix -------------------------------------------------------


def transfer_matrix(n):
    """Ordered product of the factors [[1,-1],[-x_k,0]], k = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one = MultiPoly.one(n)
    zero = MultiPoly.zero(n)
    m = [[one, zero], [zero, one]]
    for k in range(1, n + 1):
        xk = MultiPoly.var(n, k)
        f = [[one, -one], [-xk, zero]]
        m = [
            [
                m[i][0] * f[0][j] + m[i][1] * f[1][j]
                for j in range(2)
            ]
            for i in range(2)
        ]
    return m


def trace_is_indep(n):
    """tr(M) = I_n and det(M) = (-1)^n x_1...x_n, exactly."""
    m = transfer_matrix(n)
    trace = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    v = MultiPoly(n, {(1,) * n: Fraction((-1) ** n)})
    return trace == cycle_indep_poly(n) and det == v


# --- coefficient lattices --------------------------------------------------


def _cyclic_binom_product(m, j):
    """prod_i binom(m_i + m_{i+1}, m_i + j), indices mod n."""
    n = len(m)
    c = 1
    for i in range(n):
        top = m[i] + m[(i + 1) % n]
        bot = m[i] + j
        if bot < 0 or bot > top:
            return 0
        c *= math.comb(top, bot)
    return c


def carlitz_coefficients(n, order):
    """Unsigned lattice prod_i binom(m_i + m_{i+1}, m_i): the coefficients
    of the inverse square root of the cycle discriminant."""
    if n < 2:
        raise ValueError("n must be >= 2")
    coeffs = {}
    for m in box_cells(n, order):
        c = _cyclic_binom_product(m, 0)
        if c:
            coeffs[m] = Fraction(c)
    return TruncatedSeries(n, order, coeffs)


def cycle_inverse_coefficients(n, order):
    """Unsigned coefficients of 1/I_n by the alternating-j sum
    sum_{|j| <= min(m)} (-1)^j prod_i binom(m_i + m_{i+1}, m_i + j)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    coeffs = {}
    for m in box_cells(n, order):
        c = sum(
            (-1 if j % 2 else 1) * _cyclic_binom_product(m, j)
            for j in range(-min(m), min(m) + 1)
        )
        if c:
            coeffs[m] = Fraction(c)
    return TruncatedSeries(n, order, coeffs)


# --- the Laurent series R(z; x) -------------------------------------------


class LaurentInZ:
    """Finitely many Laurent layers in z, each a TruncatedSeries in x."""

    __slots__ = ("nvars", "order", "layers")

    def __init__(self, nvars, order, layers=None):
        self.nvars = nvars
        self.order = order
        self.layers = {
            int(j): s for j, s in (layers or {}).items() if s != 0
        }

    def layer(self, j):
        return self.layers.get(
            j, TruncatedSeries(self.nvars, self.order, {})
        )

    def evaluate_z(self, z):
        """Exact evaluation at a rational z != 0, layer by layer."""
        z = Fraction(z)
        total = TruncatedSeries(self.nvars, self.order, {})
        for j, s in self.layers.items():
            total = total + s * z**j
        return total

    def __eq__(self, other):
        return (
            isinstance(other, LaurentInZ)
            and self.nvars == other.nvars
            and self.order == other.order
            and self.layers == other.layers
        )


def r_series(n, order):
    """R(z; x) = sum_m sum_{|j| <= min(m)} (-1)^{|m|} c_{m,j} z^j x^m."""
    if n < 2:
        raise ValueError("n must be >= 2")
    layers = {}
    for m in box_cells(n, order):
        sign = -1 if sum(m) % 2 else 1
        for j in range(-min(m), min(m) + 1):
            c = _cyclic_binom_product(m, j)
            if c:
                layers.setdefault(j, {})[m] = Fraction(sign * c)
    return LaurentInZ(
        n, order, {j: TruncatedSeries(n, order, cs) for j, cs in layers.items()}
    )


def check_r_rational(n, order):
    """Verify R * (I_n^2 - (-1)^n (z + 2 + z^{-1}) x_1...x_n) = I_n
    as a Laurent-in-z identity of box-truncated series."""
    r = r_series(n, order)
    i_n = from_poly(cycle_indep_poly(n), order)
    v = TruncatedSeries(n, order, {(1,) * n: Fraction((-1) ** n)})
    den = {-1: -v, 0: i_n * i_n - 2 * v, 1: -v}
    out = {}
    for j, s in r.layers.items():
        for dj, ds in den.items():
            out[j + dj] = out.get(j + dj, TruncatedSeries(n, order, {})) + s * ds
    for j, s in out.items():
        expect = i_n if j == 0 else 0
        if s != expect:
            return False
    return 0 in out


def check_power_expansion(n, l, order):
    """Verify v^l / I_n^{2l+1} = (2/(2l)!) sum_m (-1)^{|m|}
    sum_{j=l}^{min(m)} (-1)^{l+j} j (j+l-1)!/(j-l)! c_{m,j} x^m,
    coefficientwise on the box.
    """
    if n < 2 or l < 1:
        raise ValueError("need n >= 2 and l >= 1")
    i_n = cycle_indep_poly(n)
    lhs = pow_neg_s(i_n, 2 * l + 1, order)
    vl = TruncatedSeries(n, order, {(l,) * n: Fraction((-1) ** (n * l))})
    lhs = vl * lhs
    scale = Fraction(2, math.factorial(2 * l))
    coeffs = {}
    for m in box_cells(n, order):
        acc = 0
        for j in range(l, min(m) + 1):
            term = (
                (-1) ** (l + j)
                * j
                * math.factorial(j + l - 1)
                // math.factorial(j - l)
                * _cyclic_binom_product(m, j)
            )
            acc += term
        if acc:
            sign = -1 if sum(m) % 2 else 1
            coeffs[m] = sign * scale * acc
    rhs = TruncatedSeries(n, order, coeffs)
    return lhs == rhs


def dixon_check(m, k):
    """Generalized Dixon identity for a triple m and k >= 1: the alternating
    sum of products of three binomials equals (k+|m|)!/(k! m_1! m_2! m_3!)."""
    m1, m2, m3 = m
    if k < 1 or min(m1, m2, m3) < 0:
        raise ValueError("need k >= 1 and m >= 0")
    lhs = Fraction(0)
    for j in range(0, min(m1, m2, m3) + 1):
        t = (
            (-1) ** j
            * (2 * j + k)
            * math.factorial(j + k - 1)
            // math.factorial(j)
        )
        t *= (
            math.comb(m1 + m2 + k, m2 + k + j)
            * math.comb(m2 + m3 + k, m3 + k + j)
            * math.comb(m3 + m1 + k, m1 + k + j)
        )
        lhs += t
    lhs /= math.factorial(k)
    rhs = Fraction(
        math.factorial(k + m1 + m2 + m3),
        math.factorial(k)
        * math.factorial(m1)
        * math.factorial(m2)
        * math.factorial(m3),
    )
    return lhs == rhs


def debruijn(n, k):
    """de Bruijn number S(n,k) = sum_{|j| <= k} (-1)^j binom(2k, k+j)^n."""
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    return sum(
        (-1 if j % 2 else 1) * math.comb(2 * k, k + j) ** n
        for j in range(-k, k + 1)
    )


def kappa(n):
    """Limit of consecutive de Bruijn ratios, (2 cos(pi/2n))^{2n}.

    The one floating-point quantity in the library (display/asymptotics).
    Rational only for n <= 3: kappa(2) = 4 and kappa(3) = 27, returned
    exactly since (2 cos(pi/4))^4 = 4 and (2 cos(pi/6))^6 = 27."""
    if n == 2:
        return 4.0
    if n == 3:
        return 27.0
    return (2 * math.cos(math.pi / (2 * n))) ** (2 * n)


# --- quadratic extension ---------------------------------------------------


def _cyc_var(n, i):
    return MultiPoly.var(n, (i - 1) % n + 1)


def quadratic_extension_coeffs(n, i):
    """Quadratic a x^2 + b x + c over Q(x_1..x_n) whose root is z_{i-1} of
    the cyclic Nahm system:

      a_i = x_i F_n(x_{i+2}, ..., x_{i-1})      (cyclic ascending, n-2 args)
      b_i = I_n(x_1, ..., -x_i, ..., x_n)
      c_i = -F_n(x_{i+1}, ..., x_{i-2})

    and a_i c_i discriminates: b_i^2 - 4 a_i c_i = Delta.
    """
    f = fibonacci_poly(n)
    i_n = cycle_indep_poly(n)
    if n == 2:
        f_at = lambda start: MultiPoly.one(n)  # noqa: E731 - F_2 = 1, no args
    else:
        f_at = lambda start: f.compose(  # noqa: E731
            [_cyc_var(n, start + k) for k in range(n - 2)]
        )
    a = _cyc_var(n, i) * f_at(i + 2)
    b = i_n.compose(
        [
            -_cyc_var(n, j) if (j - i) % n == 0 else MultiPoly.var(n, j)
            for j in range(1, n + 1)
        ]
    )
    c = -f_at(i + 1)
    return a, b, c


def quadratic_extension_check(n, order):
    """(a) b_i^2 - 4 a_i c_i = Delta as polynomials, for every i;
    (b) z_{i-1} of the cyclic Nahm series solves the quadratic, with the
    root branch matching the +1-normalized series square root of Delta."""
    if n < 3:
        raise ValueError("need n >= 3")
    delta = delta_poly(n)
    sol = cyclic_nahm(n, order)
    sqrt_delta = pow_neg_s(delta, Fraction(-1, 2), order)  # Delta^{1/2}, c.t. +1
    for i in range(1, n + 1):
        a, b, c = quadratic_extension_coeffs(n, i)
        if b * b - 4 * a * c != delta:
            return False
        z = sol.z[(i - 2) % n]
        a_s, b_s, c_s = from_poly(a, order), from_poly(b, order), from_poly(c, order)
        if a_s * z * z + b_s * z + c_s != 0:
            return False
        if 2 * a_s * z + b_s != sqrt_delta:
            return False
    return True


def cyclic_identity_checks(n, order):
    """Residual checks of the transfer-matrix identities on the box:
    (i) trace/determinant, (ii) eigenvector relation, (iii) quadratic roots,
    (iv) I_n = u^{-1} + uv, (v) D^{-1} = u^{-1} - uv, (vi) D^{-2} = Delta.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    out = {}
    out["i_trace_det"] = trace_is_indep(n)
    sol = cyclic_nahm(n, order)
    out["residuals"] = all(r == 0 for r in residuals(sol))
    u = TruncatedSeries.one(n, order)
    for z in sol.z:
        u = u * z
    v = TruncatedSeries(n, order, {(1,) * n: Fraction((-1) ** n)})
    u_inv = u.invert()
    i_n = from_poly(cycle_indep_poly(n), order)
    m = transfer_matrix(n)
    m_s = [[from_poly(p, order) for p in row] for row in m]
    z_n = sol.z[n - 1]
    uv = u * v
    out["ii_eigenvector"] = (
        m_s[0][0] * z_n + m_s[0][1] == uv * z_n
        and m_s[1][0] * z_n + m_s[1][1] == uv
    )
    indep = u_inv + uv == i_n
    out["iii_roots"] = indep and (u_inv * uv == v)
    out["iv_indep"] = indep
    d_inv = sol.d.invert()
    out["v_d_inverse"] = d_inv == u_inv - uv
    out["vi_discriminant"] = d_inv * d_inv == from_poly(delta_poly(n), order)
    return out


# --- Horn-Kapranov parametrization ----------------------------------------


def horn_kapranov_point(n, lambdas):
    """Exact (phi_0, phi_1..phi_n) from n+1 rational lambda parameters."""
    if len(lambdas) != n + 1:
        raise ValueError("need n+1 lambda values")
    lam = [Fraction(x) for x in lambdas]
    l0, ls = lam[0], lam[1:]
    num = den = Fraction(1)
    for li in ls:
        if li - l0 == 0:
            raise ValueError("lambda_i = lambda_0 makes phi_0 undefined")
        num *= li + l0
        den *= li - l0
    phi0 = num / den
    if phi0 == 0:
        raise ValueError("phi_0 = 0: some lambda_i + lambda_0 vanishes")
    phis = []
    for i in range(n):
        left = ls[(i - 1) % n]
        right = ls[(i + 1) % n]
        d = (ls[i] + right) * (ls[i] + left)
        if d == 0:
            raise ValueError("vanishing denominator in phi_i")
        phis.append(-(ls[i] - l0) * (ls[i] + l0) / d)
    return phi0, phis


def horn_kapranov_check(n, lambdas):
    """The parametrized point lies on the singular locus:
    Delta(phi_0; phi) = I_n(phi)^2 - (-1)^n (phi_0 + 2 + 1/phi_0) prod(phi)."""
    phi0, phis = horn_kapranov_point(n, lambdas)
    i_val = cycle_indep_poly(n).evaluate(phis)
    prod = Fraction(1)
    for p in phis:
        prod *= p
    t = phi0 + 2 + 1 / phi0
    return i_val * i_val - Fraction((-1) ** n) * t * prod == 0


def u_identity_check(n):
    """Polynomial identity behind the u-parametrization: substituting
    x_i = -u_{i-1} / ((1+u_i)(1+u_{i-1})) into I_n and clearing the
    denominator prod(1+u_i) must give 1 + u_1...u_n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        indep_sets = [(), (1,), (2,)]
    else:
        from .graph import make_cycle
        from .graph import enumerate_independent_sets

        indep_sets = enumerate_independent_sets(make_cycle(n))
    one = MultiPoly.one(n)
    total = MultiPoly.zero(n)
    for iset in indep_sets:
        # within an independent set the denominator factors are distinct,
        # so the cleared term keeps (1+u_j) for every j not covered
        covered = set()
        num = one * Fraction((-1) ** len(iset))
        for i in iset:
            prev = (i - 2) % n + 1
            covered.update({i, prev})
            num = num * MultiPoly.var(n, prev)
        for j in range(1, n + 1):
            if j not in covered:
                num = num * (one + MultiPoly.var(n, j))
        total = total + num
    rhs = one + MultiPoly(n, {(1,) * n: Fraction(1)})
    return total == rhs
