"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Every check is exact except the de Bruijn ratio gaps in criterion 10, whose
thresholds (0.0099 / 0.0196 / 0.0292 for n = 2, 3, 4) were frozen from an
oracle run before the suite was written.
"""

import itertools
import math
import sys
from fractions import Fraction

from indephorn.chordal import find_peo, is_chordal, is_induced_cycle, verify_peo
from indephorn.cli import identity_suite, main
from indephorn.cycletools import (
    carlitz_coefficients,
    check_power_expansion,
    check_r_rational,
    cycle_inverse_coefficients,
    cyclic_identity_checks,
    debruijn,
    dixon_check,
    horn_kapranov_check,
    kappa,
    quadratic_extension_check,
    trace_is_indep,
    u_identity_check,
)
from indephorn.graph import Graph, make_cycle, make_path
from indephorn.hornfit import DirectionFit, horn_check_graph
from indephorn.nahm import (
    check_d_recursion,
    chordal_power_formula,
    d_series_binomial,
    d_series_det,
    solve_nahm,
)
from indephorn.poly import (
    MultiPoly,
    cycle_indep_poly,
    delta_poly,
    fibonacci_poly,
    gradient,
    homogenize,
    independence_polynomial,
)
from indephorn.series import box_cells, invert, pow_neg_s, sqrt_inv
from indephorn.tracemonoid import count_traces


def report(number, description, passed):
    print(f"AC{number:02d} {description}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} failed"


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def graphs_up_to_iso(n):
    """One representative per isomorphism class of n-vertex graphs."""
    seen = set()
    out = []
    perms = list(itertools.permutations(range(1, n + 1)))
    for g in all_labeled_graphs(n):
        canon = min(
            tuple(sorted(tuple(sorted((p[i - 1], p[j - 1]))) for i, j in g.edges))
            for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(g)
    return out


def test_ac01_fibonacci_line_graphs():
    ok = all(
        independence_polynomial(make_path(n)) == fibonacci_poly(n + 2)
        for n in range(1, 11)
    )
    report(1, "I(L_n) = F_(n+2) for n = 1..10", ok)


def test_ac02_chordality_ground_truth():
    def brute(g):
        for size in range(4, g.n + 1):
            for sub in itertools.combinations(range(1, g.n + 1), size):
                if is_induced_cycle(g, sub):
                    return False
        return True

    ok = True
    for g in all_labeled_graphs(5):
        res = find_peo(g)
        ok = ok and res.is_chordal == brute(g)
        if res.is_chordal:
            ok = ok and verify_peo(g, res.ordering)
        else:
            ok = ok and len(res.witness) >= 4 and is_induced_cycle(g, res.witness)
    report(2, "chordality matches brute force on all 1024 labeled 5-vertex graphs", ok)


def test_ac03_chordal_forward_direction():
    ok = True
    for n in range(1, 6):
        for g in graphs_up_to_iso(n):
            if not is_chordal(g):
                continue
            ig = independence_polynomial(g)
            for s in (1, 2, Fraction(1, 2)):
                if chordal_power_formula(g, s, 3).coeffs != pow_neg_s(ig, s, 3).coeffs:
                    ok = False
            rep = horn_check_graph(g, 6, n + 1)
            ok = ok and rep.all_fit
    report(3, "closed form matches direct power and Horn fits exist (chordal, <= 5 vertices)", ok)


def test_ac04_non_chordal_failures():
    ok = True
    for n in (4, 5):
        rep = horn_check_graph(make_cycle(n), 8, 4)
        ok = ok and not rep.all_fit and rep.nonvanishing
    report(4, "C_4 and C_5 admit no bounded-degree fit at N=8, d=4", ok)


def test_ac05_cartier_foata():
    ok = True
    contents4 = [m for m in itertools.product(range(7), repeat=4) if sum(m) <= 6]
    for n in range(1, 5):
        contents = (
            contents4
            if n == 4
            else [m for m in itertools.product(range(7), repeat=n) if sum(m) <= 6]
        )
        for g in all_labeled_graphs(n):
            inv = invert(independence_polynomial(g), 6).unsigned()
            for m in contents:
                if count_traces(g, m) != inv.coefficient(m):
                    ok = False
    ok = ok and count_traces(make_cycle(4), (1, 1, 1, 1)) == 14
    ok = ok and count_traces(make_path(3), (1, 1, 1)) == 4
    report(5, "trace counts equal unsigned inverse coefficients (<= 4 vertices, |m| <= 6)", ok)


def test_ac06_two_variable_example():
    from indephorn.series import from_poly

    sol = solve_nahm(((0, 1), (1, 0)), 6)
    geo = invert(MultiPoly(2, {(0, 0): Fraction(1), (1, 1): Fraction(-1)}), 6)
    z1 = (
        from_poly(MultiPoly(2, {(0, 0): Fraction(1), (1, 0): Fraction(-1)}), 6)
        * geo
    )
    ok = sol.d.coeffs == geo.coeffs and sol.z[0].coeffs == z1.coeffs
    report(6, "swap-matrix Nahm system gives D = 1/(1-x1x2) and the stated z1", ok)


def test_ac07_nahm_identity_suite():
    from indephorn.chordal import nahm_matrix
    from indephorn.graph import make_complete
    from indephorn.series import from_poly

    figure = Graph(4, [(1, 2), (1, 3), (2, 4), (3, 4), (2, 3)])
    graphs = (
        [make_complete(k) for k in (2, 3, 4)]
        + [make_path(k) for k in (3, 4, 5)]
        + [figure]
    )
    ok = True
    for g in graphs:
        a = nahm_matrix(g)
        sol = solve_nahm(a, 3)
        d_bin = d_series_binomial(a, 3)
        ok = ok and d_bin.coeffs == d_series_det(sol).coeffs
        prod = from_poly(MultiPoly.one(g.n), 3)
        for z in sol.z:
            prod = prod * z
        ok = ok and d_bin.coeffs == prod.coeffs
        ok = ok and check_d_recursion(a, 3)
    report(7, "D-series identities (binomial = det = product, recursion) for the PEO matrices", ok)


def test_ac08_cycle_suite():
    ok = True
    for n in (3, 4, 5):
        ok = ok and trace_is_indep(n)
        ok = (
            ok
            and carlitz_coefficients(n, 3).coeffs
            == sqrt_inv(delta_poly(n), 3).unsigned().coeffs
        )
        ok = (
            ok
            and cycle_inverse_coefficients(n, 3).coeffs
            == invert(cycle_indep_poly(n), 3).unsigned().coeffs
        )
        d = sqrt_inv(delta_poly(n), 3)
        ok = ok and (d * d).coeffs == invert(delta_poly(n), 3).coeffs
        ok = ok and check_r_rational(n, 3)
        ok = ok and all(cyclic_identity_checks(n, 3).values())
    report(8, "cycle-graph suite (transfer matrix, Carlitz, R series, props i-vii) for n = 3,4,5", ok)


def test_ac09_dixon_and_power_expansion():
    ok = all(
        dixon_check(m, k)
        for m in itertools.product(range(5), repeat=3)
        for k in range(1, 5)
    )
    ok = ok and all(
        check_power_expansion(n, l, 2) for n, l in ((3, 1), (3, 2), (4, 1))
    )
    report(9, "generalized Dixon identity (max m <= 4, k <= 4) and odd-power expansion", ok)


def test_ac10_debruijn_asymptotics():
    ok = all(debruijn(2, k) == math.comb(2 * k, k) for k in range(31))
    ok = ok and kappa(2) == 4 and kappa(3) == 27
    thresholds = {2: 0.0099, 3: 0.0196, 4: 0.0292}
    for n, bound in thresholds.items():
        kn = kappa(n)
        gaps = [
            abs(debruijn(n, k + 1) / debruijn(n, k) / kn - 1)
            for k in range(10, 51)
        ]
        ok = ok and all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = ok and gaps[-1] < bound
    report(10, "de Bruijn diagonals: exact S(2,k) and monotone convergence to kappa_n", ok)


def test_ac11_section6_identities():
    import random

    ok = all(u_identity_check(n) for n in range(2, 7))
    rng = random.Random(11)
    for n in (3, 4, 5):
        done = 0
        while done < 100:
            lam = [
                Fraction(rng.randint(1, 40), rng.randint(1, 40))
                for _ in range(n + 1)
            ]
            try:
                good = horn_kapranov_check(n, lam)
            except ValueError:
                continue
            ok = ok and good
            done += 1
    ok = ok and all(quadratic_extension_check(n, 2) for n in range(3, 7))
    d3 = homogenize(delta_poly(3), 3)
    for pt in [(-1, 1, 1, 1), (-1, 0, 0, 1), (-1, 0, 1, 0), (-1, 1, 0, 0)]:
        ok = ok and d3.evaluate(pt) == 0
        ok = ok and all(dp.evaluate(pt) == 0 for dp in gradient(d3))
    report(11, "u-identity, Horn-Kapranov locus, quadratic extension, Cayley double points", ok)


def test_ac12_verify_identities_command(capsys):
    code = main(["verify-identities"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report(12, "verify-identities runs the suite and exits 0", code == 0 and "FAIL" not in out)
