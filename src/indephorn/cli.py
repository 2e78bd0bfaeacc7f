"""Command-line interface: graph input, exact computations, JSON/table output.

Subcommands cover the whole library: independence polynomials, chordality,
power-series expansion of I^{-s} by three independent methods, bounded-degree
Horn fitting, Nahm systems, trace counting, cycle-graph identities, and a
one-shot `verify-identities` suite.  All rationals are printed as "p/q"
strings (or "p" when the denominator is 1).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import cycletools, hornfit, nahm, series, tracemonoid
from .chordal import find_peo, nahm_matrix
from .graph import (
    Graph,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
    parse_edge_list,
    parse_graph6,
)
from .poly import (
    MultiPoly,
    cycle_indep_poly,
    delta_poly,
    gradient,
    homogenize,
    independence_polynomial,
    rat_to_str,
)

# final relative gaps |S(n,51)/S(n,50)/kappa_n - 1| frozen from an oracle run
DEBRUIJN_GAP_THRESHOLDS = {2: 0.0099, 3: 0.0196, 4: 0.0292}


def _add_graph_args(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="edge-list file (first line n, then edges)")
    src.add_argument("--graph6", help="graph6 string")
    src.add_argument("--cycle", type=int, metavar="N")
    src.add_argument("--path", type=int, metavar="N")
    src.add_argument("--complete", type=int, metavar="N")
    src.add_argument("--empty", type=int, metavar="N")


def _graph_from_args(args):
    if args.file is not None:
        with open(args.file) as fh:
            return parse_edge_list(fh.read())
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.cycle is not None:
        return make_cycle(args.cycle)
    if args.path is not None:
        return make_path(args.path)
    if args.complete is not None:
        return make_complete(args.complete)
    return make_empty(args.empty)


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {value}")
    return value


def _print_series(ts, as_json, signed=True):
    if as_json:
        print(ts.to_json(signed=signed))
    else:
        for m, c in ts.sorted_coeffs():
            print(" ".join(map(str, m)), ":", rat_to_str(c))


def cmd_indep(args):
    p = independence_polynomial(_graph_from_args(args))
    print(p.to_json() if args.json else p)
    return 0


def cmd_chordal(args):
    res = find_peo(_graph_from_args(args))
    if res.is_chordal:
        msg = "YES, PEO: " + " ".join(map(str, res.ordering))
    else:
        cyc = res.witness
        msg = f"NO, induced C{len(cyc)}: " + " ".join(map(str, cyc))
    if args.json:
        print(
            json.dumps(
                {
                    "chordal": res.is_chordal,
                    "peo": list(res.ordering) if res.is_chordal else None,
                    "witness": None if res.is_chordal else list(res.witness),
                }
            )
        )
    else:
        print(msg)
    return 0


def cmd_peo(args):
    res = find_peo(_graph_from_args(args))
    if res.is_chordal:
        print(" ".join(map(str, res.ordering)))
        return 0
    print(
        "not chordal; induced cycle: " + " ".join(map(str, res.witness)),
        file=sys.stderr,
    )
    return 1


EXPAND_METHODS = ("direct", "closed-form", "traces")


def _expand(g, s, order, method):
    """I^(-s) on the box by one method, or None if the method does not apply
    (closed-form needs a chordal graph, traces needs s = 1)."""
    if method == "direct":
        return series.pow_neg_s(independence_polynomial(g), s, order)
    if method == "closed-form":
        if not find_peo(g).is_chordal:
            return None
        return nahm.chordal_power_formula(g, s, order)
    if s != 1:
        return None
    sign = {}
    for m in series.box_cells(g.n, order):
        c = tracemonoid.count_traces(g, m)
        sign[m] = Fraction(-c if sum(m) % 2 else c)
    return series.TruncatedSeries(g.n, order, sign)


def cmd_expand(args):
    g = _graph_from_args(args)
    if args.cross_check:
        methods = {k: _expand(g, args.s, args.order, k) for k in EXPAND_METHODS}
        methods = {k: v for k, v in methods.items() if v is not None}
        bad = [k for k, v in methods.items() if v != methods["direct"]]
        for name in methods:
            print(f"{name}: {'agree' if name not in bad else 'DISAGREE'}")
        return 1 if bad else 0
    ts = _expand(g, args.s, args.order, args.method)
    if ts is None:
        print(
            f"method {args.method!r} not applicable "
            "(closed-form needs a chordal graph, traces needs s=1)",
            file=sys.stderr,
        )
        return 2
    _print_series(ts, args.json)
    return 0


def cmd_horn_check(args):
    g = _graph_from_args(args)
    report = hornfit.horn_check_graph(g, args.order, args.degree)
    if args.json:
        results = []
        for r in report.results:
            if isinstance(r, hornfit.DirectionFit):
                results.append(
                    {
                        "direction": r.direction,
                        "fit": True,
                        "degree": r.degree,
                        "P": json.loads(r.p.to_json()),
                        "Q": json.loads(r.q.to_json()),
                    }
                )
            else:
                results.append(
                    {
                        "direction": r.direction,
                        "fit": False,
                        "evidence": r.evidence,
                    }
                )
        print(
            json.dumps(
                {
                    "order": report.order,
                    "degree": report.degree,
                    "nonvanishing": report.nonvanishing,
                    "verdict": report.verdict(),
                    "directions": results,
                }
            )
        )
    else:
        print(report.verdict())
        for r in report.results:
            if isinstance(r, hornfit.DirectionFit):
                print(f"  direction {r.direction}: P = {r.p} | Q = {r.q}")
            else:
                print(f"  direction {r.direction}: no fit ({r.evidence})")
    return 0


def cmd_nahm_solve(args):
    with open(args.matrix) as fh:
        a = tuple(
            tuple(int(x) for x in line.split())
            for line in fh
            if line.strip()
        )
    sol = nahm.solve_nahm(a, args.order)
    print(
        json.dumps(
            {
                "order": sol.order,
                "z": [json.loads(z.to_json()) for z in sol.z],
                "D": json.loads(sol.d.to_json()),
            }
        )
    )
    return 0


def cmd_traces(args):
    g = _graph_from_args(args)
    content = tuple(int(x) for x in args.content.split(","))
    if len(content) != g.n or min(content) < 0:
        print("content must list one count >= 0 per vertex", file=sys.stderr)
        return 2
    print(tracemonoid.count_traces(g, content))
    return 0


def cmd_cycle_coeffs(args):
    lattice = cycletools.cycle_inverse_coefficients(args.n, args.order)
    _print_series(lattice, args.json, signed=False)
    return 0


def cmd_cycle_carlitz(args):
    _print_series(
        cycletools.carlitz_coefficients(args.n, args.order), args.json,
        signed=False,
    )
    return 0


def cmd_cycle_debruijn(args):
    print(cycletools.debruijn(args.n, args.k))
    return 0


def cmd_cycle_dixon(args):
    m = tuple(int(x) for x in args.m.split(","))
    ok = cycletools.dixon_check(m, args.k)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_cycle_verify_all(args):
    checks = cycletools.cyclic_identity_checks(args.n, args.order)
    width = max(len(k) for k in checks)
    ok = True
    for name, passed in checks.items():
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


def _sec2_example():
    a = ((0, 1), (1, 0))
    sol = nahm.solve_nahm(a, 6)
    one_minus = MultiPoly(2, {(0, 0): Fraction(1), (1, 1): Fraction(-1)})
    geo = series.invert(one_minus, 6)
    z1 = series.from_poly(
        MultiPoly(2, {(0, 0): Fraction(1), (1, 0): Fraction(-1)}), 6
    ) * geo
    return sol.d == geo and sol.z[0] == z1


def _nahm_suite_graphs():
    figure = Graph(4, [(1, 2), (1, 3), (2, 4), (3, 4), (2, 3)])
    return (
        [make_complete(k) for k in (2, 3, 4)]
        + [make_path(k) for k in (3, 4, 5)]
        + [figure]
    )


def _nahm_suite():
    for g in _nahm_suite_graphs():
        a = nahm_matrix(nahm.peo_relabeled(g))
        sol = nahm.solve_nahm(a, 3)
        d_bin = nahm.d_series_binomial(a, 3)
        if d_bin != nahm.d_series_det(sol):
            return False
        prod = sol.z[0]
        for z in sol.z[1:]:
            prod = prod * z
        if d_bin != prod:
            return False
        if not nahm.check_d_recursion(a, 3):
            return False
    return True


def _cycle_suite():
    for n in (3, 4, 5):
        checks = cycletools.cyclic_identity_checks(n, 3)
        if not all(checks.values()):
            return False
        carlitz = cycletools.carlitz_coefficients(n, 3)
        sq = series.sqrt_inv(delta_poly(n), 3)
        if carlitz != sq.unsigned():
            return False
        inv = series.invert(cycle_indep_poly(n), 3)
        if cycletools.cycle_inverse_coefficients(n, 3) != inv.unsigned():
            return False
        if not cycletools.check_r_rational(n, 3):
            return False
    return True


def _dixon_suite():
    for m1 in range(5):
        for m2 in range(5):
            for m3 in range(5):
                for k in range(1, 5):
                    if not cycletools.dixon_check((m1, m2, m3), k):
                        return False
    return all(
        cycletools.check_power_expansion(n, l, 2)
        for n, l in ((3, 1), (3, 2), (4, 1))
    )


def _debruijn_suite():
    import math

    for k in range(1, 31):
        if cycletools.debruijn(2, k) != math.comb(2 * k, k):
            return False
    for n, threshold in DEBRUIJN_GAP_THRESHOLDS.items():
        kn = cycletools.kappa(n)
        gaps = [
            abs(cycletools.debruijn(n, k + 1) / cycletools.debruijn(n, k) / kn - 1)
            for k in range(10, 51)
        ]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            return False
        if gaps[-1] >= threshold:
            return False
    return True


def _sec6_suite():
    if not all(cycletools.u_identity_check(n) for n in range(2, 7)):
        return False
    rng = random.Random(20260826)
    for n in (3, 4, 5):
        done = 0
        while done < 100:
            lambdas = [
                Fraction(rng.randint(1, 40), rng.randint(1, 40))
                for _ in range(n + 1)
            ]
            try:
                ok = cycletools.horn_kapranov_check(n, lambdas)
            except ValueError:
                continue  # degenerate tuple (vanishing denominator); redraw
            if not ok:
                return False
            done += 1
    if not all(cycletools.quadratic_extension_check(n, 2) for n in range(3, 7)):
        return False
    d3 = homogenize(delta_poly(3), 3)
    points = [(-1, 1, 1, 1), (-1, 0, 0, 1), (-1, 0, 1, 0), (-1, 1, 0, 0)]
    for pt in points:
        if d3.evaluate(pt) != 0:
            return False
        if any(dp.evaluate(pt) != 0 for dp in gradient(d3)):
            return False
    return True


def identity_suite():
    """The full identity battery; list of (name, passed) pairs."""
    return [
        ("two-vertex Nahm example (D, z1)", _sec2_example()),
        ("chordal Nahm suite (binomial/det/product/recursion)", _nahm_suite()),
        ("cycle suite n=3,4,5", _cycle_suite()),
        ("Dixon generalization and power expansion", _dixon_suite()),
        ("de Bruijn diagonal asymptotics", _debruijn_suite()),
        ("u-identity, Horn-Kapranov, quadratic extension, double points",
         _sec6_suite()),
    ]


def cmd_verify_identities(args):
    results = identity_suite()
    width = max(len(name) for name, _ in results)
    ok = True
    for name, passed in results:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="indephorn",
        description="Exact independence-polynomial and hypergeometric toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indep", help="independence polynomial of a graph")
    _add_graph_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_indep)

    p = sub.add_parser("chordal", help="chordality with PEO or witness cycle")
    _add_graph_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chordal)

    p = sub.add_parser("peo", help="perfect elimination ordering")
    _add_graph_args(p)
    p.set_defaults(func=cmd_peo)

    p = sub.add_parser("expand", help="expand I^(-s) as a power series")
    _add_graph_args(p)
    p.add_argument("--s", type=_parse_rational, default=Fraction(1))
    p.add_argument("--order", type=_nonneg_int, required=True)
    p.add_argument(
        "--method",
        choices=EXPAND_METHODS,
        default="direct",
    )
    p.add_argument("--cross-check", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("horn-check", help="bounded-degree Horn fit")
    _add_graph_args(p)
    p.add_argument("--order", type=_nonneg_int, required=True)
    p.add_argument("--degree", type=_nonneg_int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_horn_check)

    p = sub.add_parser("nahm", help="Nahm-system operations")
    nsub = p.add_subparsers(dest="nahm_command", required=True)
    ps = nsub.add_parser("solve", help="solve the system for a matrix file")
    ps.add_argument("--matrix", required=True)
    ps.add_argument("--order", type=_nonneg_int, required=True)
    ps.set_defaults(func=cmd_nahm_solve)

    p = sub.add_parser("traces", help="count trace-monoid classes")
    _add_graph_args(p)
    p.add_argument("--content", required=True, help="m1,m2,...")
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("cycle", help="cycle-graph identities")
    csub = p.add_subparsers(dest="cycle_command", required=True)
    pc = csub.add_parser("coeffs", help="unsigned coefficients of 1/I_n")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--order", type=_nonneg_int, required=True)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_cycle_coeffs)
    pc = csub.add_parser("carlitz", help="Carlitz binomial-product lattice")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--order", type=_nonneg_int, required=True)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_cycle_carlitz)
    pc = csub.add_parser("debruijn", help="de Bruijn number S(n,k)")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.set_defaults(func=cmd_cycle_debruijn)
    pc = csub.add_parser("dixon", help="generalized Dixon identity check")
    pc.add_argument("--m", required=True, help="m1,m2,m3")
    pc.add_argument("--k", type=int, required=True)
    pc.set_defaults(func=cmd_cycle_dixon)
    pc = csub.add_parser("verify-all", help="all cyclic identity checks")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--order", type=_nonneg_int, required=True)
    pc.set_defaults(func=cmd_cycle_verify_all)

    p = sub.add_parser(
        "verify-identities",
        help="run the full identity suite and print a pass/fail table",
    )
    p.set_defaults(func=cmd_verify_identities)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)  # argparse exits 2 on usage errors
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
