"""Bounded-degree Horn-hypergeometricity checks for a coefficient lattice.

For each shift direction i the fitter looks for polynomials P, Q of total
degree <= d with  c_{m+e_i} * Q(m) = c_m * P(m)  on the whole box.  The lattice
is first cleared to Python ints by one lcm.  Kernel candidates are found
modulo a large prime (numpy elimination), lifted by rational
reconstruction, and then verified EXACTLY, over the integers, at every
applicable lattice point before a fit is ever reported.  Only an empty
kernel modulo p is a certificate: it holds for a subset of the equations,
so the exact system has no nontrivial solution either.  A failure whose
evidence is "kernel candidates failed exact verification" is uncertified:
the kernel was not empty, but no lifted candidate verified.

A failure at (N, d) is bounded-degree evidence of non-Hornness, not a
proof; callers (and the CLI) report it as such.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .poly import MultiPoly

_PRIMES = (2147483647, 2147483629, 2147483587)


class InsufficientDataError(ValueError):
    """The box is too small for the degree: fewer equations than twice the
    unknown count, or a degree that reaches the box order."""


def check_nonvanishing(lattice):
    """True iff every coefficient in the box is nonzero."""
    return bool(np.count_nonzero(lattice.array) == lattice.array.size)


def _monomials(nvars, d):
    out = [
        m
        for m in itertools.product(range(d + 1), repeat=nvars)
        if sum(m) <= d
    ]
    out.sort(key=lambda m: (sum(m), m))
    return out


def _rational_reconstruct(a, p):
    """Lift a (mod p) to a fraction num/den with |num|, den <= sqrt(p/2)."""
    bound = isqrt(p // 2)
    r0, r1 = p, a % p
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    return Fraction(r1, t1)


def _kernel_mod_p(rows, p):
    """Basis of the nullspace of the row matrix modulo p (numpy int64)."""
    a = np.array(rows, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - col[:, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for k, c in enumerate(pivots):
            v[c] = (-a[k, f]) % p
        basis.append(v)
    return basis


@dataclass(frozen=True)
class DirectionFit:
    direction: int
    p: MultiPoly
    q: MultiPoly
    degree: int  # degree at which the fit was found (<= requested bound)


@dataclass(frozen=True)
class DirectionFailure:
    direction: int
    degree: int
    order: int
    evidence: str


@dataclass(frozen=True)
class HornFitReport:
    order: int
    degree: int
    nonvanishing: bool
    results: tuple = field(default_factory=tuple)

    @property
    def all_fit(self):
        return self.nonvanishing and all(
            isinstance(r, DirectionFit) for r in self.results
        )

    def verdict(self):
        if not self.nonvanishing:
            return (
                f"vanishing coefficient in the box (N={self.order}): "
                "the ratio fit does not apply"
            )
        if self.all_fit:
            return f"Horn up to (N={self.order}, d={self.degree})"
        bad = [r.direction for r in self.results if isinstance(r, DirectionFailure)]
        return (
            f"no bounded fit at (N={self.order}, d={self.degree}) in "
            f"direction(s) {bad}; evidence of non-Hornness, not a proof"
        )


def _poly_from_coeffs(monoms, coeffs):
    return MultiPoly(len(monoms[0]), dict(zip(monoms, coeffs)))


def _integer_lattice(array):
    """The cells times the lcm of their denominators, as Python ints; the
    shift ratios c_{m+e_i}/c_m are unchanged."""
    flat = array.ravel().tolist()
    den = lcm(*(c.denominator for c in flat))
    ints = [c.numerator * (den // c.denominator) for c in flat]
    return np.array(ints, dtype=object).reshape(array.shape)


def _grid_eval(terms, shape):
    """Evaluate the integer polynomial {exponent: int} at every point of the
    grid prod_j {0..shape[j]-1}, as an object array of Python ints."""
    nv = len(shape)
    out = np.zeros(shape, dtype=object)
    for m, c in terms.items():
        val = c
        for j, e in enumerate(m):
            if e:
                axis = [1] * nv
                axis[j] = shape[j]
                val = val * (np.arange(shape[j], dtype=object) ** e).reshape(axis)
        out = out + val
    return out


def _verify_fit(cells, direction, p_poly, q_poly):
    """Exact check of c_{m+e_i} Q(m) == c_m P(m) on every applicable box
    point of the integer lattice `cells`, with Q nonzero at each of them."""
    nv = cells.ndim
    ax = direction - 1
    lo = tuple(slice(0, -1) if j == ax else slice(None) for j in range(nv))
    hi = tuple(slice(1, None) if j == ax else slice(None) for j in range(nv))
    coeffs = [*p_poly.terms.values(), *q_poly.terms.values()]
    den = lcm(*(c.denominator for c in coeffs))
    p_int, q_int = (
        {m: int(c * den) for m, c in poly.terms.items()} for poly in (p_poly, q_poly)
    )
    shape = cells[lo].shape
    qv = _grid_eval(q_int, shape)
    if np.any(qv == 0):
        return False
    pv = _grid_eval(p_int, shape)
    return bool(np.all(cells[hi] * qv == cells[lo] * pv))


def _equations(cells, direction, points, monoms):
    """Rows of c_{m+e_i} Q(m) - c_m P(m) = 0 in the coefficients of (Q, P),
    one per point m, as an object array of Python ints."""
    idx = np.array(points, dtype=np.int64).reshape(len(points), cells.ndim)
    up = idx.copy()
    up[:, direction - 1] += 1
    c_hi, c_lo = cells[tuple(up.T)], cells[tuple(idx.T)]
    pts = idx.astype(object)
    exps = np.array(monoms, dtype=object).reshape(len(monoms), cells.ndim)
    vals = (pts[:, None, :] ** exps[None, :, :]).prod(2)
    return np.concatenate(
        [c_hi[:, None] * vals, -c_lo[:, None] * vals], axis=1
    )


def fit_ratio(lattice, direction, degree):
    """Fit c_{m+e_i}/c_m by a ratio of degree-<= `degree` polynomials.

    Tries ascending degrees (a fit at a lower degree is a fit at the bound).
    Returns a DirectionFit or a DirectionFailure.
    """
    nvars, order = lattice.nvars, lattice.order
    i = direction
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if not check_nonvanishing(lattice):
        raise ValueError("fit_ratio requires a nonvanishing lattice")
    samples = [
        m
        for m in itertools.product(range(order + 1), repeat=nvars)
        if m[i - 1] < order
    ]
    samples.sort(key=lambda m: (sum(m), m))
    cells = _integer_lattice(lattice.array)

    for d in range(degree + 1):
        if d >= order:
            # Q = prod_{k<order} (m_i - k), P = 0 vanishes on every sample:
            # from here on the kernel is never empty
            raise InsufficientDataError(
                f"degree {d} reaches the box order {order} with no fit at a "
                "lower degree; enlarge the box"
            )
        monoms = _monomials(nvars, d)
        ncols = 2 * len(monoms)
        if len(samples) < 2 * ncols:
            # lower degrees produced no fit and from here on the system is
            # underdetermined: a "fit" would be meaningless interpolation
            raise InsufficientDataError(
                f"{len(samples)} equations for {ncols} unknowns at degree "
                f"{d} (need a 2x margin); enlarge the box"
            )
        use = samples
        if len(samples) > 4 * ncols:
            step = len(samples) / (4 * ncols)
            use = [samples[int(k * step)] for k in range(4 * ncols)]
        equations = _equations(cells, i, use, monoms)
        evidence = None
        for p in _PRIMES:
            rows = (equations % p).astype(np.int64)
            basis = _kernel_mod_p(rows, p)
            if not basis:
                evidence = (
                    f"empty kernel mod {p} at degree {d} "
                    f"({len(use)} equations, {ncols} unknowns)"
                )
                break  # sound failure at this degree; try a larger d
            candidates = list(basis)
            if len(basis) > 1:
                rng = np.random.default_rng(0)
                mix = sum(
                    int(rng.integers(1, p)) * b.astype(object) for b in basis
                ) % p
                candidates.append(mix)
            for vec in candidates:
                lifted = [_rational_reconstruct(int(x) % p, p) for x in vec]
                if any(x is None for x in lifted):
                    continue
                q_poly = _poly_from_coeffs(monoms, lifted[: len(monoms)])
                p_poly = _poly_from_coeffs(monoms, lifted[len(monoms):])
                if q_poly.is_zero():
                    continue
                if _verify_fit(cells, i, p_poly, q_poly):
                    return DirectionFit(i, p_poly, q_poly, d)
            # candidates failed exact verification: densify the equations
            if use is not samples:
                use = samples
                equations = _equations(cells, i, use, monoms)
                continue
        # no verified fit at this degree; move on (failure only binds at
        # the requested bound)
        if d == degree:
            return DirectionFailure(
                i,
                degree,
                order,
                evidence
                or "kernel candidates failed exact verification at the bound",
            )
    raise AssertionError("unreachable")


def horn_check(lattice, degree):
    """Run the nonvanishing check and one ratio fit per direction."""
    nonvan = check_nonvanishing(lattice)
    results = []
    if nonvan:
        for i in range(1, lattice.nvars + 1):
            results.append(fit_ratio(lattice, i, degree))
    return HornFitReport(
        order=lattice.order,
        degree=degree,
        nonvanishing=nonvan,
        results=tuple(results),
    )


def horn_check_graph(g, order, degree):
    """Horn report for the unsigned inverse-independence-polynomial lattice."""
    from .poly import independence_polynomial
    from .series import invert

    lattice = invert(independence_polynomial(g), order).unsigned()
    return horn_check(lattice, degree)
