"""Seeded case lists for the benchmark workloads, and the checks on their outputs.

A workload is a list of strata.  Each stratum owns a pool of distinct inputs
of about the same cost, shuffled once by the seed; pass k of a run takes item
k of every stratum's pool.  Every pass therefore does about the same work,
which keeps pass times and latency percentiles steady across seeds, while no
input repeats until a pool runs out.

The checks recompute what they need from the congruence system alone:
membership is a zero congruence label and the index is n / gcd(n, row) for a
single-row system.  They share no code with the program's LatticeBasis
membership path, which is what the benchmark measures.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from invlat.lattice_core import CongruenceSystem


@dataclass(frozen=True)
class Case:
    """One invlat.cli.main call: its argv, the identity of the input it
    computes on (for the reuse share) and the check of its stdout."""

    argv: tuple
    key: str
    check: object

    def problems(self, rc, text):
        """What is wrong with this case's exit code and stdout; empty when
        it is correct."""
        if rc != 0:
            return [f"exit code {rc}"]
        lines = text.splitlines()
        if len(lines) != 1:
            return [f"expected one JSON line, got {len(lines)}"]
        try:
            return self.check(json.loads(lines[0]))
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"output has the wrong shape: {exc!r}"]


# ------------------------------------------------------------ exact helpers

def l1(v):
    return sum(abs(x) for x in v)


def single_row_index(n, row):
    return n // math.gcd(n, *row)


def in_lattice(system, v):
    return not any(system.label(tuple(v)))


def rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def det(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    n = len(rows)
    out = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        out *= rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] / rows[col][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return out


def sharp_system(p, m, missing):
    """The sharp-family system, built here rather than by invlat.constructions."""
    seq = []
    for k in range(1, (m + 1) // 2 + 1):
        seq.extend((k, -k))
    if m % 2:
        seq.remove(missing)
    return CongruenceSystem((p,), (tuple(c % p for c in seq),))


def sharp_missings(m):
    k = (m + 1) // 2
    return [None] if m % 2 == 0 else [s * j for j in range(1, k + 1) for s in (1, -1)]


def sharp_value(p, m):
    return -(-p // ((m + 1) // 2))


# ------------------------------------------------------------------ checks

def _check_generators(system, index, entry, nonneg):
    errs = []
    value, wit = entry["value"], entry["witnesses"]
    if entry["index"] != index:
        errs.append(f"{entry['which']} index {entry['index']} != {index}")
    if not wit:
        errs.append(f"{entry['which']} has no witnesses")
    for v in wit:
        if not in_lattice(system, v):
            errs.append(f"{entry['which']} witness {v} is not in L")
        if nonneg and min(v) < 0:
            errs.append(f"{entry['which']} witness {v} is not nonnegative")
        if l1(v) > value:
            errs.append(f"{entry['which']} witness {v} exceeds {value}")
    if wit and max(l1(v) for v in wit) != value:
        errs.append(f"{entry['which']} has no witness of norm {value}")
    return errs


def _check_dspan(system, index, entry):
    errs = []
    value, wit = entry["value"], entry["witnesses"]
    labels = set()
    for key, v in wit.items():
        lab = system.label(tuple(v))
        labels.add(lab)
        if ",".join(map(str, lab)) != key:
            errs.append(f"dspan witness {v} has label {lab}, keyed {key}")
        if min(v) < 0 or l1(v) > value:
            errs.append(f"dspan witness {v} is negative or above {value}")
    if len(labels) != index:
        errs.append(f"dspan witnesses cover {len(labels)} labels, index {index}")
    if wit and max(l1(v) for v in wit.values()) != value:
        errs.append(f"dspan has no witness of norm {value}")
    return errs


def check_bounds(system, sharp=None, dspan_value=None):
    """Check a `bounds -f json` payload; sharp=(p, m) adds the family value."""
    index = single_row_index(system.moduli[0], system.coefficients[0])

    def check(payload):
        b = payload["bounds"]
        errs = [] if payload["index"] == index else [f"index {payload['index']} != {index}"]
        if "dspan" in b:
            errs += _check_dspan(system, index, b["dspan"])
            if dspan_value is not None and b["dspan"]["value"] != dspan_value:
                errs.append(f"dspan {b['dspan']['value']} != {dspan_value}")
        for which, nonneg in (("bfield", True), ("bfieldr", False)):
            if which in b:
                errs += _check_generators(system, index, b[which], nonneg)
        if len(b) == 3:
            ds, bf, br = (b[w]["value"] for w in ("dspan", "bfield", "bfieldr"))
            if not br <= bf <= 2 * ds + 1:
                errs.append(f"chain bfieldr {br} <= bfield {bf} <= 2*{ds}+1 fails")
        if sharp is not None:
            want = sharp_value(*sharp)
            if not b["bfield"]["value"] == b["bfieldr"]["value"] == want:
                errs.append(f"sharp family value is not {want}")
        return errs
    return check


def check_minima(system):
    m = system.m
    index = single_row_index(system.moduli[0], system.coefficients[0])

    def check(payload):
        vals, wit, mk = payload["minima"], payload["witnesses"], payload["minkowski"]
        errs = []
        if payload["index"] != index or len(vals) != m or len(wit) != m:
            errs.append("index or number of minima is wrong")
        if vals != sorted(vals):
            errs.append(f"minima {vals} are not ascending")
        for lam, v in zip(vals, wit):
            if not in_lattice(system, v) or l1(v) != lam:
                errs.append(f"minimum {lam} has witness {v} outside L or off norm")
        if rank(wit) != m:
            errs.append("minima witnesses are not of full rank")
        if not (mk["ok"] and mk["product"] == math.prod(vals)
                and mk["bound"] == math.factorial(m) * index
                and mk["product"] <= mk["bound"]):
            errs.append(f"minkowski report {mk} is wrong")
        return errs
    return check


def check_basis(system):
    m = system.m
    index = single_row_index(system.moduli[0], system.coefficients[0])

    def check(payload):
        vecs = payload["vectors"]
        errs = []
        if payload["index"] != index or len(vecs) != m:
            errs.append("index or number of basis vectors is wrong")
        if any(not in_lattice(system, v) for v in vecs):
            errs.append("a basis vector is not in L")
        if abs(det(vecs)) != index:
            errs.append(f"|det| {abs(det(vecs))} != index {index}")
        norms = [l1(v) for v in vecs]
        if payload["norms"] != norms or payload["max_norm"] != max(norms):
            errs.append("basis norms are wrong")
        if payload["bound"] != -(-index // ((m + 1) // 2)):
            errs.append("basis bound is wrong")
        lift = payload.get("lift")
        if lift and any(min(v) < 0 or not in_lattice(system, v) for v in lift["vectors"]):
            errs.append("a lifted vector is negative or not in L")
        return errs
    return check


def _system_of(obj):
    return CongruenceSystem(tuple(obj["moduli"]), tuple(tuple(r) for r in obj["coefficients"]))


def check_sampled(suite, count):
    def check(payload):
        errs = [] if payload["ok"] is True and len(payload["cases"]) == count \
            else [f"{suite}: ok {payload['ok']} with {len(payload['cases'])} cases"]
        for case in payload["cases"]:
            s = _system_of(case["system"])
            index = single_row_index(s.moduli[0], s.coefficients[0])
            d = case["detail"]
            if suite == "relations":
                good = (d["index"] == index
                        and d["bfieldr"] <= d["bfield"] <= 2 * d["dspan"] + 1
                        and d["dspan"] <= index - 1 and d["bfield"] <= index)
            else:
                good = d["product"] <= d["bound"] == math.factorial(s.m) * index
            if not (case["ok"] is True and good):
                errs.append(f"{suite} case {case} fails")
        return errs
    return check


def check_hrd(ns):
    def check(payload):
        groups = payload["groups"]
        errs = [] if payload["ok"] is True else ["hrd suite reports violations"]
        if [g["n"] for g in groups] != list(ns):
            errs.append("hrd groups do not match the requested n")
        for g in groups:
            sig = sum(d for d in range(1, g["n"] + 1) if g["n"] % d == 0)
            if g["sigma"] != sig or g["count"] != sig or g["violations"]:
                errs.append(f"hrd group {g['n']} is wrong")
            mx = g["max_dspan_nonexcluded"]
            if mx is not None and mx > g["n"] // 2:
                errs.append(f"hrd group {g['n']} exceeds the halving bound")
        return errs
    return check


def check_sharp_suite(p, ms):
    want = sum(len(sharp_missings(m)) for m in ms if m < p)

    def check(payload):
        cases = payload["cases"]
        errs = [] if payload["ok"] is True else ["sharp suite reports violations"]
        if len(cases) != want:
            errs.append(f"sharp suite ran {len(cases)} cases, expected {want}")
        for c in cases:
            v = sharp_value(c["p"], c["m"])
            if not (c["ok"] is True and c["bfield"] == c["bfieldr"] == c["bound"] == v):
                errs.append(f"sharp case {c} is wrong")
        return errs
    return check


# --------------------------------------------------------------- workloads

def _congruence(n, row):
    return json.dumps({"moduli": [n], "coefficients": [list(row)]}, separators=(",", ":"))


def _sharp_strata():
    """(m, primes): one lattice per stratum and pass, each costing 0.6 to
    1.1 s over its three commands.  The seed picks the prime and the missing
    coefficient within a stratum.  Those choices move a lattice's cost by up
    to 40%, but the pools are small, so every choice recurs within a run and
    the median pass does not hinge on the draw."""
    return [(4, (29, 31)), (5, (29,)), (5, (31,)), (6, (23,))]


def _sharp_pass(pools, k):
    cases = []
    for (m, _), pool in pools:
        p, missing = pool[k % len(pool)]
        system = sharp_system(p, m, missing)
        spec = f"sharp:p={p},m={m}" + (f",missing={missing}" if missing is not None else "")
        key = system.to_json()
        cases.append(Case(("bounds", "--construct", spec, "-f", "json"), key,
                          check_bounds(system, sharp=(p, m))))
        cases.append(Case(("minima", "--construct", spec, "-f", "json"), key,
                          check_minima(system)))
        cases.append(Case(("basis", "--construct", spec, "-f", "json"), key,
                          check_basis(system)))
    return cases


# (coefficient row of n, first n, last n): [[1, n-1]] has dspan n/2, the
# three-coordinate rows a large fraction of n as well.  Narrow bands keep the
# cost of a stratum's items within about 15% of each other.
_DSPAN_STRATA = [(lambda n: (1, n - 1), lo, lo + 99) for lo in (700, 900, 1100, 1300)] \
    + [(lambda n: (1, n - 1, 2), lo, lo + 19) for lo in (150, 180, 210, 240)] \
    + [(lambda n: (1, 2, n - 3), lo, lo + 29) for lo in (280, 340, 400, 460)]


def _dspan_pass(pools, k):
    cases = []
    for row_of, pool in pools:
        n = pool[k % len(pool)]
        row = row_of(n)
        system = CongruenceSystem((n,), (row,))
        cases.append(Case(
            ("bounds", "--which", "dspan", "-f", "json", "--congruence", _congruence(n, row)),
            system.to_json(),
            check_bounds(system, dspan_value=n // 2 if len(row) == 2 else None)))
    return cases


SAMPLED = dict(random=40, nmax=40, m="2..5")
SAMPLED_PER_PASS = 16    # of each of verify relations and verify minkowski
HRD_STRATA = [(20, 39), (40, 59), (60, 79)]
# distinct (p, m) for verify sharp; every one is cheap
SWEEP_SHARP = [(p, m) for p in (5, 7, 11, 13, 17, 19) for m in (2, 3, 4, 5) if m < p]


def _sweep_pass(pools, k, jobs):
    seeds, hrd_pools, sharp_pool = pools
    j = ("-f", "json", "--jobs", str(jobs))
    cases = []
    for i in range(SAMPLED_PER_PASS):
        for suite in ("relations", "minkowski"):
            s = seeds[suite][(SAMPLED_PER_PASS * k + i) % len(seeds[suite])]
            argv = ("verify", suite, "--random", str(SAMPLED["random"]), "--seed", str(s),
                    "--m", SAMPLED["m"], "--nmax", str(SAMPLED["nmax"])) + j
            cases.append(Case(argv, f"{suite}:{s}", check_sampled(suite, SAMPLED["random"])))
    for pool in hrd_pools:
        n = pool[k % len(pool)]
        cases.append(Case(("verify", "hrd", "--n", str(n)) + j, f"hrd:{n}", check_hrd([n])))
    p, m = sharp_pool[k % len(sharp_pool)]
    cases.append(Case(("verify", "sharp", "--primes", str(p), "--m", str(m)) + j,
                      f"sharp:{p}:{m}", check_sharp_suite(p, [m])))
    return cases


class Workload:
    """Builds pass k of one workload from the seed; pass 0 is the traced one."""

    def __init__(self, name, seed, jobs=1):
        self.name = name
        self.jobs = jobs
        rng = random.Random(f"{name}:{seed}")

        def shuffled(items):
            items = list(items)
            rng.shuffle(items)
            return items

        if name == "sharp-search":
            self.pools = [((m, ps), shuffled((p, miss) for p in ps for miss in sharp_missings(m)))
                          for m, ps in _sharp_strata()]
        elif name == "dspan-deep":
            self.pools = [(row_of, shuffled(range(lo, hi + 1)))
                          for row_of, lo, hi in _DSPAN_STRATA]
        elif name == "small-sweep":
            seeds = {suite: rng.sample(range(10 ** 6), 400) for suite in ("relations", "minkowski")}
            hrd = [shuffled(range(lo, hi + 1)) for lo, hi in HRD_STRATA]
            self.pools = (seeds, hrd, shuffled(SWEEP_SHARP))
        else:
            raise ValueError(f"unknown workload {name!r}")

    def cases(self, k, jobs=None):
        if self.name == "sharp-search":
            return _sharp_pass(self.pools, k)
        if self.name == "dspan-deep":
            return _dspan_pass(self.pools, k)
        return _sweep_pass(self.pools, k, self.jobs if jobs is None else jobs)
