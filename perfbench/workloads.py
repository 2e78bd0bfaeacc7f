"""The three workloads: seeded job lists, the library calls each job makes,
and the checks and digests that run after it, outside the timed interval.

Every check is computed by this file's own code from the job's inputs (brute
force independent sets, chordality by simplicial elimination, box-truncated
products and the differential equation of I^(-s)), not by the route that
produced the output, except where the paper's identity is itself the check
(``d_series_det``, ``check_d_recursion``, ``cyclic_identity_checks``).

A round holds one job per stratum.  The structures (a graph up to its
labelling, a matrix up to a simultaneous permutation of rows and columns,
the box, the degree or the exponent) are drawn from a fixed seed, the same
for every run.  The run's seed draws the vertex labelling of every job and the order of the jobs in a
round.  So the same seed gives the same jobs and another seed other jobs,
while the work per run stays the same: the spread between seeds is the
machine's, not the draw's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from indephorn import cli, cycletools, graph, hornfit, nahm, poly, series


@dataclass(frozen=True)
class Job:
    id: int
    stratum: tuple
    args: dict


ROUNDS = 5  # of 20 jobs: 100 jobs a pass, ten beyond the 90th percentile


def rounds(workload, seed):
    """The ROUNDS rounds of a run; the same seed gives the same rounds."""
    pick = random.Random(f"{workload.name}:catalogue")
    rng = random.Random(f"{workload.name}:{seed}")
    out, next_id = [], 0
    for _ in range(ROUNDS):
        jobs = []
        for stratum in workload.strata:
            args = workload.relabel(rng, workload.make(pick, *stratum))
            jobs.append(Job(next_id, stratum, args))
            next_id += 1
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# --- graphs, computed here and not by indephorn ------------------------------


def random_graph(rng, n, p=0.5):
    return tuple(
        (i, j) for j in range(2, n + 1) for i in range(1, j) if rng.random() < p
    )


def neighbours(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def independent_monomials(n, edges):
    """0/1 exponent vectors of the independent sets (brute force)."""
    out = []
    for m in itertools.product((0, 1), repeat=n):
        if not any(m[i - 1] and m[j - 1] for i, j in edges):
            out.append(m)
    return out


def peo(n, edges):
    """An ordering in which each vertex's earlier neighbours form a clique
    (reverse simplicial elimination), or None if the graph is not chordal."""
    adj = neighbours(n, edges)
    left = set(adj)
    eliminated = []
    while left:
        for v in sorted(left):
            nb = adj[v] & left
            if all(b in adj[a] for a, b in itertools.combinations(nb, 2)):
                eliminated.append(v)
                left.remove(v)
                break
        else:
            return None
    return eliminated[::-1]


def permuted(rng, n, edges):
    """The edges under a random relabelling of the vertices."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabelled(edges, perm)


def relabelled(edges, order):
    pos = {v: k + 1 for k, v in enumerate(order)}
    return tuple(sorted(tuple(sorted((pos[i], pos[j]))) for i, j in edges))


def fit_degree_bound(n, edges, order):
    """Degree of the reduced ratio c_{m+e_i}/c_m, per direction i, of the
    unsigned 1/I lattice of a chordal graph.

    With the PEO `order`, c_m = prod_j binom(A_j, m_j), A_j = m_j plus the
    m of j's earlier neighbours.  Shifting m_i multiplies by (A_i+1)/(m_i+1)
    and, for each later neighbour j, by (A_j+1)/(A_j-m_j+1); a linear form is
    a set of vertices plus 1, and equal forms cancel.
    """
    adj = neighbours(n, edges)
    pos = {v: k for k, v in enumerate(order)}
    earlier = {v: frozenset(u for u in adj[v] if pos[u] < pos[v]) for v in adj}
    out = {}
    for i in range(1, n + 1):
        num = Counter([earlier[i] | {i}])
        den = Counter([frozenset({i})])
        for j in adj[i]:
            if pos[j] > pos[i]:
                num[earlier[j] | {j}] += 1
                den[earlier[j]] += 1
        out[i] = max(sum((num - den).values()), sum((den - num).values()))
    return out


def graph6(n, edges):
    bits = [int((i, j) in edges) for j in range(2, n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def box(n, order):
    return list(itertools.product(range(order + 1), repeat=n))


def box_product(a, b, order):
    """Product of two {exponent: coefficient} dicts, truncated to the box."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if max(m) <= order:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def solves_power_ode(indep, q, s, n, order):
    """True iff q = I^(-s) on the box.

    q_0 = 1 and I * d_i q + s * d_i I * q = 0 determine q: taken at
    cell - e_i, with i the first non-zero index of the cell, the relation
    fixes the coefficient at the cell from smaller ones, so it is checked
    once per cell.
    """
    if q.get((0,) * n) != 1:
        return False
    for cell in box(n, order):
        i = next((k for k, e in enumerate(cell) if e), None)
        if i is None:
            continue
        acc = 0
        for t in indep:
            r = tuple(x - y for x, y in zip(cell, t))
            if min(r) < 0:
                continue
            v = q.get(r)
            if v:
                acc += v * (cell[i] - t[i] + s * t[i])
        if acc:
            return False
    return True


def coeff_text(coeffs):
    return ",".join(f"{m}:{c}" for m, c in sorted(coeffs.items()))


# --- horn: Horn checks of the unsigned 1/I lattice ---------------------------


class Horn:
    """Inversion over Fraction, the mod-p kernel and exact fit verification;
    no series products, no traces, no CLI."""

    name = "horn"
    # (vertices, box order N, chordal or with an induced cycle of length >= 4)
    strata = (
        [(3, N, "chordal") for N in (4, 5, 6, 7, 8)]
        + [(4, 3, "chordal"), (4, 3, "chordal"), (4, 4, "chordal")]
        + [(4, 3, "cycle")] * 3 + [(4, 4, "cycle")] * 3 + [(4, 5, "cycle")] * 2
        + [(5, 3, "chordal")] * 3
        + [(5, 3, "cycle")]
    )
    max_failing_degree = 2

    def make(self, rng, n, order, kind):
        while True:
            edges = random_graph(rng, n)
            ordering = peo(n, edges)
            if (ordering is not None) != (kind == "chordal"):
                continue
            top = order - 2  # keeps the degree below the box order
            if ordering is None:
                d = rng.randint(1, min(top, self.max_failing_degree))
            else:
                low = max(1, max(fit_degree_bound(n, edges, ordering).values()))
                if low > top:
                    continue
                d = rng.randint(low, top)
            # twice as many equations as unknowns at every degree tried
            if order * (order + 1) ** (n - 1) < 4 * math.comb(n + d, d):
                continue
            return {"n": n, "N": order, "d": d, "edges": edges}

    def relabel(self, rng, a):
        edges = permuted(rng, a["n"], a["edges"])
        ordering = peo(a["n"], edges)
        bounds = ordering and fit_degree_bound(a["n"], edges, ordering)
        return {**a, "edges": edges, "bounds": bounds}

    def run(self, a):
        g = graph.Graph(a["n"], a["edges"])
        lattice = series.invert(poly.independence_polynomial(g), a["N"]).unsigned()
        return lattice, hornfit.horn_check(lattice, a["d"])

    def check(self, a, out):
        lattice, report = out
        n, order, d = a["n"], a["N"], a["d"]
        if (lattice.nvars, lattice.order) != (n, order):
            return ["lattice has the wrong shape"]
        c = {}
        for m in box(n, order):
            v = lattice.coeffs.get(m)
            if v is None or v.denominator != 1 or v <= 0:
                return [f"lattice coefficient {v} at {m} is not a positive integer"]
            c[m] = int(v)
        indep = independent_monomials(n, a["edges"])
        for m in box(n, order):
            acc = 0
            for t in indep:
                r = tuple(x - y for x, y in zip(m, t))
                if min(r) >= 0:
                    acc += -c[r] if sum(r) % 2 else c[r]
            if acc != (0 if any(m) else 1):
                return [f"I * (signed lattice) is {acc} at {m}"]
        if not report.nonvanishing:
            return ["nonvanishing lattice reported as vanishing"]
        if [r.direction for r in report.results] != list(range(1, n + 1)):
            return ["one result per direction expected"]
        problems = []
        for r in report.results:
            i = r.direction
            if isinstance(r, hornfit.DirectionFailure):
                if a["bounds"] is not None:
                    problems.append(f"chordal graph has no fit in direction {i}")
                elif r.degree != d:
                    problems.append(f"failure in direction {i} at degree {r.degree}")
                continue
            if r.degree > d or (a["bounds"] and r.degree > a["bounds"][i]):
                problems.append(f"fit in direction {i} at degree {r.degree}")
            for m in box(n, order):
                if m[i - 1] == order:
                    continue
                up = list(m)
                up[i - 1] += 1
                q = r.q.evaluate(m)
                if q == 0 or c[tuple(up)] * q != c[m] * r.p.evaluate(m):
                    problems.append(f"fit in direction {i} fails at {m}")
                    break
        return problems

    def digest(self, a, out):
        lattice, report = out
        verdicts = ";".join(
            f"{r.direction}:{'fit' if isinstance(r, hornfit.DirectionFit) else 'fail'}"
            f":{r.degree}"
            for r in report.results
        )
        return f"{a['n']}|{a['N']}|{a['d']}|{a['edges']}|{coeff_text(lattice.coeffs)}|{verdicts}"

    def counts(self, a, out):
        fits = certified = uncertified = 0
        for r in out[1].results:
            if isinstance(r, hornfit.DirectionFit):
                fits += 1
            elif r.evidence.startswith("empty kernel"):
                certified += 1
            else:
                uncertified += 1
        return {"directions": a["n"], "fits": fits, "certified": certified,
                "uncertified": uncertified}


# --- nahm: formal solutions of Nahm systems -----------------------------------


class Nahm:
    """Dense products and integer powers in the fixed-point passes, inversion
    of dense series for negative entries, and the cycle identities."""

    name = "nahm"
    # (matrix kind, size n, box order N)
    strata = (
        [("peo", 2, 4), ("peo", 2, 5), ("peo", 3, 2), ("peo", 3, 2), ("peo", 3, 3)]
        + [("peo", 3, 3), ("peo", 4, 2)]
        + [("cyclic", 2, 3), ("cyclic", 2, 4), ("cyclic", 3, 2)]
        + [("random", 2, 2), ("random", 2, 2), ("random", 2, 3), ("random", 2, 3)]
        + [("random", 2, 4), ("random", 2, 4), ("random", 3, 2), ("random", 3, 2)]
        + [("random", 3, 2), ("random", 3, 2)]
    )

    def make(self, rng, kind, n, order):
        args = {"kind": kind, "n": n, "N": order, "edges": None}
        if kind == "cyclic":
            args["matrix"] = cycletools.cyclic_matrix(n)
        elif kind == "random":
            args["matrix"] = tuple(
                tuple(rng.choice((-1, 0, 1, 2)) for _ in range(n)) for _ in range(n)
            )
        else:
            while peo(n, edges := random_graph(rng, n)) is None:
                pass
            args["edges"] = edges
        return args

    def relabel(self, rng, a):
        n = a["n"]
        if a["kind"] == "random":
            perm = list(range(n))
            rng.shuffle(perm)
            m = a["matrix"]
            return {**a, "matrix": tuple(tuple(m[perm[i]][perm[j]] for j in range(n))
                                         for i in range(n))}
        if a["kind"] == "peo":
            edges = permuted(rng, n, a["edges"])
            edges = relabelled(edges, peo(n, edges))
            matrix = tuple(
                tuple(int(i == j or (i < j and (i, j) in edges)) for j in range(1, n + 1))
                for i in range(1, n + 1)
            )
            return {**a, "edges": edges, "matrix": matrix}
        return a  # the cyclic system keeps the labelling the paper gives it

    def run(self, a):
        sol = nahm.solve_nahm(a["matrix"], a["N"])
        res = nahm.residuals(sol)
        d_det = nahm.d_series_det(sol)
        checks = None
        if a["kind"] == "cyclic":
            checks = cycletools.cyclic_identity_checks(a["n"], a["N"])
        return sol, res, d_det, checks

    def check(self, a, out):
        sol, res, d_det, checks = out
        n, order = a["n"], a["N"]
        problems = []
        if any(r.coeffs for r in res):
            problems.append("nonzero residual")
        if d_det.coeffs != sol.d.coeffs:
            problems.append("determinant route disagrees with the binomial D")
        if a["kind"] == "peo":
            prod = {(0,) * n: 1}
            for z in sol.z:
                prod = box_product(prod, z.coeffs, order)
            if prod != sol.d.coeffs:
                problems.append("prod z_i differs from D")
            indep = {m: 1 for m in independent_monomials(n, a["edges"])}
            if box_product(indep, sol.d.coeffs, order) != {(0,) * n: 1}:
                problems.append("D is not 1/I")
            if not nahm.check_d_recursion(a["matrix"], order):
                problems.append("peel-off recursion fails")
        if checks is not None and not all(checks.values()):
            problems.append(f"cyclic identities fail: {checks}")
        return problems

    def digest(self, a, out):
        sol, res, d_det, checks = out
        zs = "|".join(coeff_text(z.coeffs) for z in sol.z)
        flags = sorted(checks.items()) if checks else ""
        return (
            f"{a['matrix']}|{a['N']}|{zs}|{coeff_text(sol.d.coeffs)}"
            f"|{coeff_text(d_det.coeffs)}|{[not r.coeffs for r in res]}|{flags}"
        )

    def counts(self, a, out):
        return {}


# --- expand: the CLI's expand command, in process -----------------------------


S_VALUES = ("2", "1/2", "-1/2", "1/3", "2/5", "3/2")  # s = 1 is its own stratum


class Expand:
    """pow_rational on lattices with growing denominators, the chordal closed
    form, trace counting and the CLI's route selection."""

    name = "expand"
    # (vertices, box order N, job kind)
    strata = (
        [(3, N, "direct") for N in (4, 6, 7, 8)]
        + [(4, N, "direct") for N in (2, 3, 4)]
        + [(5, 2, "direct"), (5, 3, "direct")]
        + [(3, 6, "closed-form"), (4, 3, "closed-form"), (5, 2, "closed-form")]
        + [(3, 5, "direct-s1"), (5, 2, "direct-s1"), (4, 3, "direct-s1")]
        + [(4, 3, "traces"), (5, 2, "traces")]
        + [(4, 3, "cross-check"), (5, 2, "cross-check"), (3, 5, "cross-check-s1")]
    )

    def make(self, rng, n, order, kind):
        while True:
            edges = random_graph(rng, n)
            chordal = peo(n, edges) is not None
            if chordal or kind != "closed-form":
                break
        s = "1" if kind in ("direct-s1", "traces", "cross-check-s1") else rng.choice(S_VALUES)
        if kind.startswith("cross-check"):
            flags = ["--cross-check"]
        else:
            flags = ["--method", kind.replace("-s1", "")]
        if rng.random() < 0.5:
            flags.append("--json")
        return {"n": n, "N": order, "s": s, "edges": edges, "chordal": chordal,
                "cross": kind.startswith("cross-check"), "flags": flags}

    def relabel(self, rng, a):
        edges = permuted(rng, a["n"], a["edges"])
        argv = ["expand", "--graph6", graph6(a["n"], edges), "--order", str(a["N"]),
                f"--s={a['s']}"] + a["flags"]
        return {**a, "edges": edges, "argv": argv}

    def run(self, a):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(a["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def routes_needed(self, a):
        if not a["cross"]:
            return ["direct"]
        return ["direct"] + ["closed-form"] * a["chordal"] + ["traces"] * (a["s"] == "1")

    def parse(self, a, text):
        n, order = a["n"], a["N"]
        if "--json" in a["argv"]:
            data = json.loads(text)
            if (data["nvars"], data["N"]) != (n, order):
                raise ValueError("series has the wrong shape")
            terms = [(tuple(t["m"]), t["c"]) for t in data["terms"]]
        else:
            terms = []
            for line in text.splitlines():
                exps, c = line.split(":")
                terms.append((tuple(int(e) for e in exps.split()), c.strip()))
        q = {}
        for m, c in terms:
            if len(m) != n or min(m) < 0 or max(m) > order or m in q:
                raise ValueError(f"term {m} is outside the box or repeated")
            q[m] = Fraction(c)
        return q

    def check(self, a, out):
        code, text, err = out
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        if a["cross"]:
            expect = [f"{r}: agree" for r in self.routes_needed(a)]
            return [] if text.splitlines() == expect else [f"cross-check said {text!r}"]
        q = self.parse(a, text)
        indep = independent_monomials(a["n"], a["edges"])
        if not solves_power_ode(indep, q, Fraction(a["s"]), a["n"], a["N"]):
            return ["output is not I^(-s) on the box"]
        return []

    def digest(self, a, out):
        code, text, _ = out
        body = text.strip() if a["cross"] else coeff_text(self.parse(a, text))
        return f"{a['argv']}|{code}|{body}"

    def counts(self, a, out):
        return {"output_bytes": len(out[1].encode()),
                "routes_needed": len(self.routes_needed(a))}


WORKLOADS = {w.name: w for w in (Horn(), Nahm(), Expand())}
