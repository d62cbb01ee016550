"""Batch frontend: define lattices, run bounds, sweeps, verifications.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 cap
exceeded, 4 internal error.  json and csv outputs are stable contracts and
byte-identical for identical config + seed; pretty output is for reading,
not parsing.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from functools import partial
from typing import NamedTuple

from . import constructions, geomnum, rank2
from .degree_bounds import CapExceededError, bfield, bfieldr, dspan, verify_bound_relations
from .lattice_core import (
    CongruenceSystem, InternalError, InvalidSystemError, from_congruences, l1norm)
from .parallel import parallel_map, resolve_jobs
from .sampling import random_congruence_systems, scan_cell_systems

BOUND_FUNCS = {"dspan": dspan, "bfield": bfield, "bfieldr": bfieldr}


class Result(NamedTuple):
    """What a command computed, in every output form: the json payload, the
    csv header and rows, the pretty lines (any iterable, so a generator
    builds them only when they are written), and the violations a
    verification suite found."""

    payload: dict
    header: list
    rows: list
    pretty: Iterable
    violations: tuple = ()


def emit(result, fmt, out):
    """Write result in format fmt to out and each violation to stderr; the
    exit code is 1 when there are violations, else 0."""
    if fmt == "json":
        out.write(json.dumps(result.payload) + "\n")
    elif fmt == "csv":
        # None is an empty cell
        for row in [result.header] + result.rows:
            out.write(",".join("" if x is None else str(x) for x in row) + "\n")
    else:
        for line in result.pretty:
            out.write(line + "\n")
    for v in result.violations:
        sys.stderr.write(f"violation: {v}\n")
    return 1 if result.violations else 0


def table_lines(header, rows):
    """Pretty table rows as h=v pairs."""
    return ["  ".join(f"{h}={v}" for h, v in zip(header, row)) for row in rows]


# ---------------------------------------------------------------- input forms

def parse_range(text):
    """"1..24" -> 1..24 inclusive; "6,8,10" -> that list; "7" -> [7]."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {part}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError("empty range")
    return out


def parse_construct(text):
    """"sharp:p=5,m=2" -> (name, {p: 5, m: 2}); values are ints."""
    name, _, rest = text.partition(":")
    name = name.strip()
    params = {}
    if rest.strip():
        for item in rest.split(","):
            k, eq, v = item.partition("=")
            if not eq:
                raise ValueError(f"expected k=v, got {item!r}")
            params[k.strip()] = int(v)
    return name, params


def _sharp(p, m, missing=None):
    return constructions.sharp_case_lattice(constructions.SharpCaseSpec(p, m, missing))


def _counterexample(n):
    return constructions.counterexample_lattice(n)


def _dihedral(n):
    return {"n": n, "dspan": constructions.dihedral_dspan(n)}


def _dicyclic(n):
    return {"n": n, "dspan": constructions.dicyclic_dspan(n),
            "witness_ok": constructions.dicyclic_witness_check(n)}


# name -> (build, required parameters, optional parameters, defines a
# lattice); build takes the parameters as keywords and returns the
# CongruenceSystem of a lattice family, else the construct payload
FAMILIES = {
    "sharp": (_sharp, ("p", "m"), ("missing",), True),
    "counterexample": (_counterexample, ("n",), (), True),
    "dihedral": (_dihedral, ("n",), (), False),
    "dicyclic": (_dicyclic, ("n",), (), False),
}


def construction(text, need_lattice=False):
    """Build the family that `name:k=v,...` names, after checking that its
    parameters are exactly the family's."""
    name, params = parse_construct(text)
    if name not in FAMILIES:
        raise ValueError(f"unknown construction {name!r}")
    build, required, optional, lattice = FAMILIES[name]
    if need_lattice and not lattice:
        raise ValueError(f"construction {name!r} does not define a lattice")
    for k in required:
        if k not in params:
            raise ValueError(f"{name} needs parameter {k}")
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {name} parameters {unknown}")
    return build(**params)


def load_system(args):
    sources = [s for s in (args.congruence, args.input, args.construct) if s]
    if len(sources) != 1:
        raise ValueError("provide exactly one of --congruence, --input, --construct")
    if args.construct:
        return construction(args.construct, need_lattice=True)
    text = args.congruence
    if args.input:
        with open(args.input) as fh:
            text = fh.read()
    return CongruenceSystem.from_json(text)


def add_lattice_args(sub):
    sub.add_argument("--congruence", help="inline JSON {moduli, coefficients}")
    sub.add_argument("--input", help="path to the same JSON")
    sub.add_argument("--construct", help="inline construction, e.g. sharp:p=5,m=2")


def add_format_arg(sub):
    sub.add_argument("--format", "-f", choices=("json", "csv", "pretty"),
                     default="pretty")


def add_jobs_arg(sub):
    sub.add_argument("--jobs", "-j", type=int, default=None,
                     help="worker processes (INVLAT_THREADS also honored)")


def vec_str(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def csv_cell(v):
    # vectors go space-separated so rows never need quoting
    return " ".join(str(x) for x in v)


# ------------------------------------------------------------------- bounds

def cmd_bounds(args):
    system = load_system(args)
    L = from_congruences(system)
    which = ("dspan", "bfield", "bfieldr") if args.which == "all" else \
        tuple(w.strip() for w in args.which.split(","))
    for w in which:
        if w not in BOUND_FUNCS:
            raise ValueError(f"unknown bound {w!r}")
    reports = {w: BOUND_FUNCS[w](L, cap=args.cap) for w in which}
    # key coset witnesses by the congruence labels, not box residues
    bounds = {w: reports[w].to_jsonable(system.label) for w in which}

    def pretty():
        # a generator: the per-coset lines are built only for pretty output
        yield f"index {L.index}, dimension {system.m}, moduli {list(system.moduli)}"
        for w in which:
            rep = reports[w]
            yield f"{w} = {rep.value}  [cap {rep.search_cap}]"
            if w == "dspan":
                for lab, v in bounds[w]["witnesses"].items():
                    yield f"  label {lab}: {vec_str(v)}"
            else:
                yield "  witnesses: " + " ".join(vec_str(v) for v in rep.witnesses)
    payload = {"input": system.to_jsonable(), "index": L.index, "bounds": bounds}
    rows = [(w, reports[w].value, L.index, reports[w].search_cap) for w in which]
    return Result(payload, ["which", "value", "index", "search_cap"], rows, pretty())


# ------------------------------------------------------------------- minima

def cmd_minima(args):
    system = load_system(args)
    L = from_congruences(system)
    sm = geomnum.successive_minima(L, cap=args.cap)
    mk = geomnum.minkowski_check(L, sm)
    payload = {
        "input": system.to_jsonable(),
        "index": L.index,
        "minima": sm.values,
        "witnesses": sm.witnesses,
        "minkowski": {"product": mk.product, "bound": mk.bound, "ok": mk.ok},
    }
    minima = list(enumerate(zip(sm.values, sm.witnesses), 1))
    rows = [(i, lam, csv_cell(w), mk.product, mk.bound, mk.ok) for i, (lam, w) in minima]
    pretty = [f"index {L.index}, dimension {system.m}"]
    pretty += [f"lambda_{i} = {lam}  witness {vec_str(w)}" for i, (lam, w) in minima]
    pretty.append(f"minkowski: product {mk.product} <= {mk.bound}"
                  f" {'ok' if mk.ok else 'VIOLATED'}")
    return Result(payload, ["i", "lambda", "witness", "product", "bound", "minkowski_ok"],
                  rows, pretty)


# -------------------------------------------------------------------- basis

def _inverse_pairs(system):
    """Coordinate pairs (i, j) with c_i + c_j = 0 mod n, when they tile
    every coordinate of a single-row system; None otherwise."""
    if system.r != 1:
        return None
    n = system.moduli[0]
    row = system.coefficients[0]
    used = set()
    pairs = []
    for i in range(system.m):
        if i in used:
            continue
        j = next((j for j in range(i + 1, system.m)
                  if j not in used and (row[i] + row[j]) % n == 0), None)
        if j is None:
            return None
        pairs.append((i, j))
        used.update((i, j))
    return pairs


def cmd_basis(args):
    system = load_system(args)
    L = from_congruences(system)
    gd = geomnum.gen_deg_basis(L)
    c = gd.completion
    payload = {
        "input": system.to_jsonable(),
        "index": L.index,
        "vectors": gd.vectors,
        "norms": gd.norms,
        "max_norm": gd.max_norm,
        "bound": gd.bound,
        "within_bound": gd.within_bound,
        "completion": {
            "bstar": c.bstar,
            "dstar": c.dstar,
            "form": c.form.coefficients,
            "dstar_at_least_index": c.dstar_at_least_index,
        },
    }
    basis = list(enumerate(zip(gd.vectors, gd.norms), 1))
    rows = [("gen_deg", i, csv_cell(v), nrm) for i, (v, nrm) in basis]
    pretty = [f"index {L.index}, dimension {system.m}"]
    pretty += [f"b_{i} = {vec_str(v)}  norm {nrm}" for i, (v, nrm) in basis]
    pretty += [f"max norm {gd.max_norm}, bound {gd.bound}, within {gd.within_bound}",
               f"completion b* = {vec_str(c.bstar)}, D* = {c.dstar}, "
               f"D = {vec_str(c.form.coefficients)}"]
    pairs = _inverse_pairs(system)
    if pairs is not None:
        lifted = geomnum.dual_pair_lift(L, pairs, gd.vectors)
        mx = max((l1norm(v) for v in lifted), default=0)
        payload["lift"] = {"pairs": pairs, "vectors": lifted, "max_norm": mx}
        rows += [("lifted", i, csv_cell(v), l1norm(v)) for i, v in enumerate(lifted, 1)]
        pretty.append(f"lift pairs {' '.join(vec_str(p) for p in pairs)}: max norm {mx}")
        pretty += [f"  {vec_str(v)}" for v in lifted]
    elif system.r == 1:
        pretty.append("lift: coefficients are not inverse-closed")
    return Result(payload, ["kind", "i", "vector", "norm"], rows, pretty)


# ------------------------------------------------------------------ verify

def _relations_case(item):
    system, _ = item
    return verify_bound_relations(from_congruences(system))


def _minkowski_case(item):
    system, _ = item
    mk = geomnum.minkowski_check(from_congruences(system))
    return mk.ok, {"product": mk.product, "bound": mk.bound}


def _blob_case(item):
    system, _ = item
    return rank2.blob_check(from_congruences(system))


def _bite_case(item):
    system, seed = item
    return rank2.bite_check(from_congruences(system), seed=seed)


def _verify_hrd(args, jobs):
    groups = [rank2.hrd_verify(n, jobs=jobs) for n in parse_range(args.n)]
    violations = [v for g in groups for v in g.violations]
    rows = [(g.n, g.sigma, g.count, g.excluded_count,
             g.max_dspan_nonexcluded, len(g.violations)) for g in groups]
    header = ["n", "sigma", "count", "excluded", "max_dspan", "violations"]
    payload = {
        "suite": "hrd",
        "groups": [
            {"n": g.n, "sigma": g.sigma, "count": g.count,
             "excluded": g.excluded_count,
             "max_dspan_nonexcluded": g.max_dspan_nonexcluded,
             "violations": g.violations}
            for g in groups
        ],
        "ok": not violations,
    }
    return payload, header, rows, violations


def _verify_counterexample(args, jobs):
    reports = [constructions.counterexample_check(n) for n in parse_range(args.n)]
    violations = [f"n={r.n}" for r in reports if not r.ok]
    rows = [(r.n, r.bfieldr, r.half, r.bound, r.ok) for r in reports]
    payload = {
        "suite": "counterexample",
        "cases": [r.to_jsonable() for r in reports],
        "ok": not violations,
    }
    return payload, ["n", "bfieldr", "half", "bound", "ok"], rows, violations


def _verify_sampled(worker, args, jobs):
    """A property suite over seeded random systems; worker gets (system,
    seed) with the seed advancing by one per system and returns (ok,
    detail)."""
    systems = random_congruence_systems(
        args.random, args.seed, m_choices=tuple(parse_range(args.m)),
        n_max=args.nmax)
    items = [(s, args.seed + i) for i, s in enumerate(systems)]
    results = list(zip(systems, parallel_map(worker, items, jobs)))
    violations = [s.to_json() for s, (ok, _) in results if not ok]
    rows = [(s.moduli[0], s.m, csv_cell(s.coefficients[0]), ok)
            for s, (ok, _) in results]
    payload = {
        "suite": args.suite,
        "cases": [{"system": s.to_jsonable(), "ok": ok, "detail": d}
                  for s, (ok, d) in results],
        "ok": not violations,
    }
    return payload, ["n", "m", "coefficients", "ok"], rows, violations


def _verify_sharp(args, jobs):
    cases = []
    violations = []
    for p in parse_range(args.primes):
        if not constructions.is_prime(p):
            continue
        for m in parse_range(args.m):
            if m >= p:
                continue
            missings = [None] if m % 2 == 0 else \
                [s * k for k in range(1, (m + 1) // 2 + 1) for s in (1, -1)]
            for miss in missings:
                spec = constructions.SharpCaseSpec(p, m, miss)
                L = from_congruences(constructions.sharp_case_lattice(spec))
                bf = bfield(L).value
                br = bfieldr(L).value
                bound = constructions.conjecture_bound(p, m)
                ok = bf == br == bound
                cases.append((p, m, spec.missing, bf, br, bound, ok))
                if not ok:
                    violations.append(f"p={p} m={m} missing={spec.missing}")
    payload = {
        "suite": "sharp",
        "cases": [
            {"p": p, "m": m, "missing": miss, "bfield": bf, "bfieldr": br,
             "bound": bound, "ok": ok}
            for p, m, miss, bf, br, bound, ok in cases
        ],
        "ok": not violations,
    }
    # an empty cell, not None, also in pretty rows: even m has no missing
    rows = [(p, m, "" if miss is None else miss, bf, br, bound, ok)
            for p, m, miss, bf, br, bound, ok in cases]
    return payload, ["p", "m", "missing", "bfield", "bfieldr", "bound", "ok"], rows, violations


# suite -> (run(args, jobs) giving (payload, header, rows, violations),
#           the default --n for the suites that read it)
SUITES = {
    "hrd": (_verify_hrd, "1..24"),
    "counterexample": (_verify_counterexample, "6,8,10,12"),
    "minkowski": (partial(_verify_sampled, _minkowski_case), None),
    "relations": (partial(_verify_sampled, _relations_case), None),
    "sharp": (_verify_sharp, None),
    "blob": (partial(_verify_sampled, _blob_case), None),
    "bite": (partial(_verify_sampled, _bite_case), None),
}


def cmd_verify(args):
    run, default_n = SUITES[args.suite]
    if args.n is None:
        args.n = default_n
    payload, header, rows, violations = run(args, resolve_jobs(args.jobs))
    pretty = table_lines(header, rows)
    pretty.append(f"suite {args.suite}: {len(rows)} cases, {len(violations)} violations")
    return Result(payload, header, rows, pretty, violations)


# -------------------------------------------------------------------- scan

SCAN_HEADER = ["p", "m", "family", "coefficients", "dspan", "bfield", "bfieldr",
               "conjecture_bound", "meets_bound", "flag"]


def _scan_cell(cell):
    family, p, m, samples, seed, cap = cell
    if m >= p:
        return []
    if family == "sharp":
        systems = [constructions.sharp_case_lattice(constructions.SharpCaseSpec(p, m))]
    else:
        systems = scan_cell_systems(p, m, samples, seed)
    bound = constructions.conjecture_bound(p, m)
    rows = []
    for system in systems:
        L = from_congruences(system)
        try:
            ds = dspan(L, cap=cap).value
            bf = bfield(L, cap=cap).value
            br = bfieldr(L, cap=cap).value
            meets, flag = bf <= bound, ""
        except CapExceededError as exc:
            ds = bf = br = meets = None
            flag = f"cap-exceeded:{exc.which}"
        rows.append({
            "p": p, "m": m, "family": family,
            "coefficients": system.coefficients[0],
            "dspan": ds, "bfield": bf, "bfieldr": br,
            "conjecture_bound": bound,
            "meets_bound": meets, "flag": flag,
        })
    return rows


def cmd_scan(args):
    jobs = resolve_jobs(args.jobs)
    primes = [p for p in parse_range(args.primes) if constructions.is_prime(p)]
    if not primes:
        raise ValueError("no primes in range")
    cells = [(args.family, p, m, args.samples, args.seed, args.cap)
             for p in primes for m in parse_range(args.m)]
    rows = [r for cell_rows in parallel_map(_scan_cell, cells, jobs)
            for r in cell_rows]
    table = [
        (r["p"], r["m"], r["family"], csv_cell(r["coefficients"]),
         r["dspan"], r["bfield"], r["bfieldr"], r["conjecture_bound"],
         r["meets_bound"], r["flag"])
        for r in rows
    ]
    pretty = table_lines(SCAN_HEADER, table) + [f"{len(table)} rows"]
    return Result({"rows": rows}, SCAN_HEADER, table, pretty)


# --------------------------------------------------------------- construct

def cmd_construct(args):
    built = construction(args.spec)
    if isinstance(built, CongruenceSystem):
        payload = dict(built.to_jsonable(), index=from_congruences(built).index)
    else:
        payload = built

    def cell(v):
        if isinstance(v, list) and v and isinstance(v[0], list):
            return ";".join(csv_cell(r) for r in v)
        return csv_cell(v) if isinstance(v, list) else v
    rows = [(k, cell(v)) for k, v in payload.items()]
    pretty = [f"{k}: {v}" for k, v in payload.items()]
    return Result(payload, ["key", "value"], rows, pretty)


# --------------------------------------------------------------------- main

def build_parser():
    parser = argparse.ArgumentParser(
        prog="invlat",
        description="exact degree bounds and lattice constructions for "
                    "diagonal representations of finite abelian groups")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bounds", help="dspan / bfield / bfieldr of a lattice")
    add_lattice_args(p)
    p.add_argument("--which", default="all",
                   help="comma list of dspan,bfield,bfieldr or 'all'")
    p.add_argument("--cap", type=int, default=None)
    add_format_arg(p)
    p.set_defaults(fn=cmd_bounds)

    p = subs.add_parser("minima", help="successive minima and Minkowski check")
    add_lattice_args(p)
    p.add_argument("--cap", type=int, default=None)
    add_format_arg(p)
    p.set_defaults(fn=cmd_minima)

    p = subs.add_parser("basis", help="generating-degree basis and dual-pair lift")
    add_lattice_args(p)
    add_format_arg(p)
    p.set_defaults(fn=cmd_basis)

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n", default=None, help="index range for hrd / counterexample")
    p.add_argument("--random", type=int, default=100, help="sample size for property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", default="2..4")
    p.add_argument("--nmax", type=int, default=30)
    p.add_argument("--primes", default="5..13")
    add_format_arg(p)
    add_jobs_arg(p)
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("scan", help="per-(p, m) bound table")
    p.add_argument("--primes", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--family", choices=("sharp", "random"), default="sharp")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=None)
    add_format_arg(p)
    add_jobs_arg(p)
    p.set_defaults(fn=cmd_scan)

    p = subs.add_parser("construct", help="emit a named construction")
    p.add_argument("spec", help="e.g. sharp:p=5,m=2 or dicyclic:n=3")
    add_format_arg(p)
    p.set_defaults(fn=cmd_construct)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return emit(args.fn(args), args.format, out)
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded while computing {exc.which} "
                         f"(cap {exc.cap})\n")
        return 3
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    except (InvalidSystemError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def console_main():
    sys.exit(main())
