"""Truncated multivariate power series on the coefficient box 0 <= m_i <= N,
with exact rational arithmetic: multiplication, inversion, rational powers.

A series is one dense object ndarray of shape (N+1)^n; its nonzero cells
hold Fractions.  Products shift and add whole arrays.  Rational powers come
from one graded recurrence, and inversion is its s = -1 case.

All supports are non-negative, so every operation here is exact within the
box (no truncation error leaks back into retained coefficients).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from .poly import MultiPoly, rat_to_str, grlex_key


def box_cells(nvars, order):
    """All exponent tuples of the box, in graded order."""
    cells = list(itertools.product(range(order + 1), repeat=nvars))
    cells.sort(key=grlex_key)
    return cells


@functools.lru_cache(maxsize=64)
def _graded_slabs(nvars, order):
    """The box cells of total degree 1, 2, ..., nvars*order: per degree, the
    cells as a (count, nvars) int array and each cell's first nonzero axis."""
    box = box_cells(nvars, order)
    cells = np.array(box, dtype=np.int64).reshape(len(box), nvars)
    degree = cells.sum(1)
    out = []
    for k in range(1, nvars * order + 1):
        slab = cells[degree == k]
        out.append((slab, (slab != 0).argmax(1)))
    return out


class TruncatedSeries:
    """Coefficients on the box max-norm <= order, as an (order+1)^nvars
    object array; zero cells may hold 0."""

    __slots__ = ("nvars", "order", "array")

    def __init__(self, nvars, order, coeffs=None):
        array = np.zeros((order + 1,) * nvars, dtype=object)
        for m, c in (coeffs or {}).items():
            m = tuple(int(e) for e in m)
            if len(m) != nvars:
                raise ValueError("exponent length mismatch")
            if any(e < 0 or e > order for e in m):
                continue
            if isinstance(c, float):
                raise TypeError("floating point coefficients are not allowed")
            c = Fraction(c)
            if c:
                array[m] = c
        self.nvars = nvars
        self.order = order
        self.array = array

    @classmethod
    def _of(cls, nvars, order, array):
        """A series on an (order+1)^nvars object array, taken as it is."""
        out = object.__new__(cls)
        out.nvars, out.order, out.array = nvars, order, array
        return out

    def _like(self, array):
        return self._of(self.nvars, self.order, array)

    @property
    def coeffs(self):
        """Read-only view {exponent: Fraction} of the nonzero cells."""
        cells = np.argwhere(self.array).tolist()
        return {tuple(m): self.array[tuple(m)] for m in cells}

    @classmethod
    def one(cls, nvars, order):
        return cls(nvars, order, {(0,) * nvars: Fraction(1)})

    def _check(self, other):
        if self.nvars != other.nvars or self.order != other.order:
            raise ValueError("series shape mismatch")

    def coefficient(self, m):
        m = tuple(m)
        if len(m) != self.nvars or any(e < 0 or e > self.order for e in m):
            raise ValueError(f"exponent {m} outside the box")
        return Fraction(self.array[m])

    def constant_term(self):
        return Fraction(self.array[(0,) * self.nvars])

    def diagonal(self):
        """Coefficients c_{(k,...,k)} for k = 0..order."""
        return [
            Fraction(self.array[(k,) * self.nvars]) for k in range(self.order + 1)
        ]

    def unsigned(self):
        """Divide out the (-1)^{|m|} sign pattern."""
        odd = np.indices(self.array.shape).sum(0) % 2 == 1
        return self._like(np.where(odd, -self.array, self.array))

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self._like(self.array + other.array)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.array)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return self._like(self.array - other.array)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, x):
        if isinstance(x, TruncatedSeries):
            return x
        return TruncatedSeries(
            self.nvars, self.order, {(0,) * self.nvars: Fraction(x)}
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self._like(self.array * Fraction(other))
        self._check(other)
        a, b = self.array, other.array
        if np.count_nonzero(a) < np.count_nonzero(b):
            a, b = b, a
        # shift-and-add of the denser factor over the sparser one's support
        top = self.order + 1
        out = np.zeros_like(a)
        for t in np.argwhere(b).tolist():
            src = tuple(slice(0, top - e) for e in t)
            dst = tuple(slice(e, top) for e in t)
            out[dst] += b[tuple(t)] * a[src]
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        """Integer power; negative k goes through inversion."""
        if k < 0:
            return self.invert() ** (-k)
        out = TruncatedSeries.one(self.nvars, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return (
            isinstance(other, TruncatedSeries)
            and self.nvars == other.nvars
            and self.order == other.order
            and bool((self.array == other.array).all())
        )

    def __hash__(self):
        return hash((self.nvars, self.order, frozenset(self.coeffs.items())))

    def invert(self):
        """Multiplicative inverse on the box (constant term must be nonzero):
        the s = -1 case of pow_rational, with the constant term scaled to 1."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("cannot invert a series with zero constant term")
        if c0 == 1:
            return self.pow_rational(-1)
        q = self._like(self.array / c0).pow_rational(-1)
        return self._like(q.array / c0)

    def pow_rational(self, s):
        """self**s for rational s; constant term must be 1.

        From p * d_i(q) = s * d_i(p) * q with q = p^s, at the cell m - e_i
        with i the first nonzero axis of m:

            q_m = (1 + s) B / m_i - A,  A = sum_t p_t q_{m-t},
                                        B = sum_t t_i p_t q_{m-t},

        over the support t != 0 of p.  Every q_{m-t} has a lower total
        degree, so the cells are solved one total degree at a time, in
        vectorized steps.  B drops out at s = -1 (inversion).
        """
        s = Fraction(s)
        if self.constant_term() != 1:
            raise ValueError("rational powers need constant term 1")
        supp = np.argwhere(self.array)
        supp = supp[supp.any(1)]
        p = self.array[tuple(supp.T)]
        q = np.zeros_like(self.array)
        q[(0,) * self.nvars] = Fraction(1)
        # cells per step, so that at most 2^16 (cell, t) pairs are held at once
        step = max(1, (1 << 16) // max(1, len(supp)))
        for slab, slab_first in _graded_slabs(self.nvars, self.order):
            for lo in range(0, len(slab), step):
                cells, first = slab[lo:lo + step], slab_first[lo:lo + step]
                # every pair t <= m of a cell m and a support point t
                diff = cells[:, None, :] - supp[None, :, :]
                ci, ti = np.nonzero((diff >= 0).all(2))
                terms = p[ti] * q[tuple(diff[ci, ti].T)]
                a = np.zeros(len(cells), dtype=object)
                np.add.at(a, ci, terms)
                if s == -1:
                    q[tuple(cells.T)] = -a
                    continue
                b = np.zeros(len(cells), dtype=object)
                np.add.at(b, ci, terms * supp[ti, first[ci]].astype(object))
                m_i = cells[np.arange(len(cells)), first].astype(object)
                q[tuple(cells.T)] = b * (1 + s) / m_i - a
        return self._like(q)

    def sorted_coeffs(self):
        return sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0]))

    def __str__(self):
        coeffs = self.coeffs
        body = str(MultiPoly(self.nvars, coeffs)) if coeffs else "0"
        return f"{body} + O(box {self.order})"

    __repr__ = __str__

    def to_json(self, signed=True):
        return json.dumps(
            {
                "nvars": self.nvars,
                "N": self.order,
                "signed": signed,
                "terms": [
                    {"m": list(m), "c": rat_to_str(c)}
                    for m, c in self.sorted_coeffs()
                ],
            }
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(
            data["nvars"],
            data["N"],
            {tuple(t["m"]): Fraction(t["c"]) for t in data["terms"]},
        )


def from_poly(p, order):
    """Restrict a MultiPoly to the coefficient box."""
    return TruncatedSeries(p.nvars, order, dict(p.terms))


def invert(p, order):
    """Series inverse of a polynomial (or series) with nonzero constant term."""
    if isinstance(p, MultiPoly):
        p = from_poly(p, order)
    return p.invert()


def pow_neg_s(p, s, order=None):
    """p^{-s} as a truncated series, for rational s; constant term must be 1."""
    if isinstance(p, MultiPoly):
        if order is None:
            raise ValueError("order required when expanding a polynomial")
        p = from_poly(p, order)
    return p.pow_rational(-Fraction(s))


def sqrt_inv(p, order=None):
    """p^{-1/2} as a truncated series."""
    return pow_neg_s(p, Fraction(1, 2), order)


def binomial(x, m):
    """binom(x, m) as a polynomial in the top entry: x(x-1)...(x-m+1)/m!.

    x may be an int or Fraction; m must be a non-negative integer.
    """
    if m < 0:
        return Fraction(0)
    if isinstance(x, int):
        if x >= 0:
            return Fraction(math.comb(x, m))
        num = 1
        for t in range(m):
            num *= x - t
        return Fraction(num, math.factorial(m))
    x = Fraction(x)
    num = Fraction(1)
    for t in range(m):
        num *= x - t
    return num / math.factorial(m)
