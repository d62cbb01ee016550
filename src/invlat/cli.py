"""Batch frontend: define lattices, run bounds, sweeps, verifications.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 cap
exceeded.  json and csv outputs are stable contracts and byte-identical
for identical config + seed; pretty output is for reading, not parsing.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import constructions, geomnum, rank2
from .degree_bounds import CapExceededError, bfield, bfieldr, dspan, verify_bound_relations
from .lattice_core import CongruenceSystem, InvalidSystemError, from_congruences, l1norm
from .parallel import parallel_map, resolve_jobs
from .sampling import random_congruence_systems

BOUND_FUNCS = {"dspan": dspan, "bfield": bfield, "bfieldr": bfieldr}
SUITES = ("hrd", "counterexample", "minkowski", "relations", "sharp", "blob", "bite")


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


def system_from_construct(text):
    name, params = parse_construct(text)
    if name == "sharp":
        spec = constructions.SharpCaseSpec(
            params.pop("p"), params.pop("m"), params.pop("missing", None))
        if params:
            raise ValueError(f"unknown sharp parameters {sorted(params)}")
        return constructions.sharp_case_lattice(spec)
    if name == "counterexample":
        n = params.pop("n")
        if params:
            raise ValueError(f"unknown counterexample parameters {sorted(params)}")
        return constructions.counterexample_lattice(n)
    raise ValueError(f"construction {name!r} does not define a lattice")


def load_system(args):
    sources = [s for s in (args.congruence, args.input, args.construct) if s]
    if len(sources) != 1:
        raise ValueError("provide exactly one of --congruence, --input, --construct")
    if args.construct:
        return system_from_construct(args.construct)
    text = args.congruence
    if args.input:
        with open(args.input) as fh:
            text = fh.read()
    return CongruenceSystem.from_json(text)


def add_lattice_args(sub):
    sub.add_argument("--congruence", help="inline JSON {moduli, coefficients}")
    sub.add_argument("--input", help="path to the same JSON")
    sub.add_argument("--construct", help="inline construction, e.g. sharp:p=5,m=2")


def add_common_args(sub):
    sub.add_argument("--format", "-f", choices=("json", "csv", "pretty"),
                     default="pretty")
    sub.add_argument("--jobs", "-j", type=int, default=None,
                     help="worker processes (INVLAT_THREADS also honored)")


def vec_str(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def csv_cell(v):
    # vectors go space-separated so rows never need quoting
    return " ".join(str(x) for x in v)


def emit_csv(header, rows, out):
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(x) for x in row) + "\n")


# ------------------------------------------------------------------- bounds

def cmd_bounds(args, out):
    system = load_system(args)
    L = from_congruences(system)
    which = ("dspan", "bfield", "bfieldr") if args.which == "all" else \
        tuple(w.strip() for w in args.which.split(","))
    for w in which:
        if w not in BOUND_FUNCS:
            raise ValueError(f"unknown bound {w!r}")
    reports = {w: BOUND_FUNCS[w](L, cap=args.cap) for w in which}
    payload = {
        "input": system.to_jsonable(),
        "index": L.index,
        "bounds": {},
    }
    for w, rep in reports.items():
        entry = rep.to_jsonable()
        if w == "dspan":
            # key coset witnesses by the congruence labels, not box residues
            entry["witnesses"] = {
                ",".join(str(r) for r in system.label(v)): list(v)
                for v in rep.witnesses.values()
            }
        payload["bounds"][w] = entry
    if args.format == "json":
        out.write(json.dumps(payload) + "\n")
    elif args.format == "csv":
        emit_csv(["which", "value", "index", "search_cap"],
                 [(w, reports[w].value, L.index, reports[w].search_cap)
                  for w in which], out)
    else:
        out.write(f"index {L.index}, dimension {system.m}, "
                  f"moduli {list(system.moduli)}\n")
        for w in which:
            rep = reports[w]
            out.write(f"{w} = {rep.value}  [cap {rep.search_cap}]\n")
            if w == "dspan":
                for v in rep.witnesses.values():
                    lab = ",".join(str(r) for r in system.label(v))
                    out.write(f"  label {lab}: {vec_str(v)}\n")
            else:
                vecs = " ".join(vec_str(v) for v in rep.witnesses)
                out.write(f"  witnesses: {vecs}\n")
    return 0


# ------------------------------------------------------------------- minima

def cmd_minima(args, out):
    system = load_system(args)
    L = from_congruences(system)
    sm = geomnum.successive_minima(L, cap=args.cap)
    mk = geomnum.minkowski_check(L, sm)
    if args.format == "json":
        payload = {
            "input": system.to_jsonable(),
            "index": L.index,
            "minima": list(sm.values),
            "witnesses": [list(v) for v in sm.witnesses],
            "minkowski": {"product": mk.product, "bound": mk.bound, "ok": mk.ok},
        }
        out.write(json.dumps(payload) + "\n")
    elif args.format == "csv":
        rows = [(i + 1, lam, csv_cell(w), mk.product, mk.bound, mk.ok)
                for i, (lam, w) in enumerate(zip(sm.values, sm.witnesses))]
        emit_csv(["i", "lambda", "witness", "product", "bound", "minkowski_ok"],
                 rows, out)
    else:
        out.write(f"index {L.index}, dimension {system.m}\n")
        for i, (lam, w) in enumerate(zip(sm.values, sm.witnesses)):
            out.write(f"lambda_{i + 1} = {lam}  witness {vec_str(w)}\n")
        out.write(f"minkowski: product {mk.product} <= {mk.bound}"
                  f" {'ok' if mk.ok else 'VIOLATED'}\n")
    return 0


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


def cmd_basis(args, out):
    system = load_system(args)
    L = from_congruences(system)
    gd = geomnum.gen_deg_basis(L)
    pairs = _inverse_pairs(system)
    lifted = None
    if pairs is not None:
        lifted = geomnum.dual_pair_lift(L, pairs, gd.vectors)
    if args.format == "json":
        payload = {
            "input": system.to_jsonable(),
            "index": L.index,
            "vectors": [list(v) for v in gd.vectors],
            "norms": list(gd.norms),
            "max_norm": gd.max_norm,
            "bound": gd.bound,
            "within_bound": gd.within_bound,
        }
        payload["completion"] = {
            "bstar": list(gd.completion.bstar),
            "dstar": gd.completion.dstar,
            "form": list(gd.completion.form.coefficients),
            "dstar_at_least_index": gd.completion.dstar_at_least_index,
        }
        if lifted is not None:
            payload["lift"] = {
                "pairs": [list(p) for p in pairs],
                "vectors": [list(v) for v in lifted],
                "max_norm": max((l1norm(v) for v in lifted), default=0),
            }
        out.write(json.dumps(payload) + "\n")
    elif args.format == "csv":
        rows = [("gen_deg", i + 1, csv_cell(v), nrm)
                for i, (v, nrm) in enumerate(zip(gd.vectors, gd.norms))]
        if lifted is not None:
            rows += [("lifted", i + 1, csv_cell(v), l1norm(v))
                     for i, v in enumerate(lifted)]
        emit_csv(["kind", "i", "vector", "norm"], rows, out)
    else:
        out.write(f"index {L.index}, dimension {system.m}\n")
        for i, (v, nrm) in enumerate(zip(gd.vectors, gd.norms)):
            out.write(f"b_{i + 1} = {vec_str(v)}  norm {nrm}\n")
        out.write(f"max norm {gd.max_norm}, bound {gd.bound}, "
                  f"within {gd.within_bound}\n")
        c = gd.completion
        out.write(f"completion b* = {vec_str(c.bstar)}, D* = {c.dstar}, "
                  f"D = {vec_str(c.form.coefficients)}\n")
        if lifted is not None:
            mx = max((l1norm(v) for v in lifted), default=0)
            pstr = " ".join(vec_str(p) for p in pairs)
            out.write(f"lift pairs {pstr}: max norm {mx}\n")
            for v in lifted:
                out.write(f"  {vec_str(v)}\n")
        elif system.r == 1:
            out.write("lift: coefficients are not inverse-closed\n")
    return 0


# ------------------------------------------------------------------ verify

def _relations_case(system):
    ok, values = verify_bound_relations(from_congruences(system))
    return ok, system, values


def _minkowski_case(system):
    mk = geomnum.minkowski_check(from_congruences(system))
    return mk.ok, system, {"product": mk.product, "bound": mk.bound}


def _blob_case(system):
    ok, detail = rank2.blob_check(from_congruences(system))
    return ok, system, detail


def _bite_case(args):
    system, seed = args
    ok, detail = rank2.bite_check(from_congruences(system), seed=seed)
    return ok, system, detail


def _sampled(args):
    return random_congruence_systems(
        args.random, args.seed, m_choices=tuple(parse_range(args.m)),
        n_max=args.nmax)


def _verify_hrd(args, jobs):
    groups = []
    violations = []
    for n in parse_range(args.n):
        rep = rank2.hrd_verify(n, jobs=jobs)
        groups.append(rep)
        violations.extend(rep.violations)
    rows = [(g.n, g.sigma, g.count, g.excluded_count,
             g.max_dspan_nonexcluded, len(g.violations)) for g in groups]
    header = ["n", "sigma", "count", "excluded", "max_dspan", "violations"]
    payload = {
        "suite": "hrd",
        "groups": [
            {"n": g.n, "sigma": g.sigma, "count": g.count,
             "excluded": g.excluded_count,
             "max_dspan_nonexcluded": g.max_dspan_nonexcluded,
             "violations": list(g.violations)}
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


def _verify_sampled(args, jobs, worker, suite):
    systems = _sampled(args)
    if suite == "bite":
        results = parallel_map(worker, [(s, args.seed + i) for i, s in enumerate(systems)], jobs)
    else:
        results = parallel_map(worker, systems, jobs)
    violations = [s.to_json() for ok, s, _ in results if not ok]
    rows = [(s.moduli[0], s.m, csv_cell(s.coefficients[0]), ok)
            for ok, s, _ in results]
    payload = {
        "suite": suite,
        "cases": [{"system": s.to_jsonable(), "ok": ok, "detail": _jsonable_detail(d)}
                  for ok, s, d in results],
        "ok": not violations,
    }
    return payload, ["n", "m", "coefficients", "ok"], rows, violations


def _jsonable_detail(d):
    out = {}
    for k, v in d.items():
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


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
    rows = [(p, m, "" if miss is None else miss, bf, br, bound, ok)
            for p, m, miss, bf, br, bound, ok in cases]
    return payload, ["p", "m", "missing", "bfield", "bfieldr", "bound", "ok"], rows, violations


def cmd_verify(args, out):
    jobs = resolve_jobs(args.jobs)
    if args.suite == "hrd":
        payload, header, rows, violations = _verify_hrd(args, jobs)
    elif args.suite == "counterexample":
        payload, header, rows, violations = _verify_counterexample(args, jobs)
    elif args.suite == "minkowski":
        payload, header, rows, violations = _verify_sampled(args, jobs, _minkowski_case, "minkowski")
    elif args.suite == "relations":
        payload, header, rows, violations = _verify_sampled(args, jobs, _relations_case, "relations")
    elif args.suite == "blob":
        payload, header, rows, violations = _verify_sampled(args, jobs, _blob_case, "blob")
    elif args.suite == "bite":
        payload, header, rows, violations = _verify_sampled(args, jobs, _bite_case, "bite")
    else:
        payload, header, rows, violations = _verify_sharp(args, jobs)
    if args.format == "json":
        out.write(json.dumps(payload) + "\n")
    elif args.format == "csv":
        emit_csv(header, rows, out)
    else:
        for row in rows:
            out.write("  ".join(f"{h}={v}" for h, v in zip(header, row)) + "\n")
        out.write(f"suite {args.suite}: {len(rows)} cases, "
                  f"{len(violations)} violations\n")
    if violations:
        for v in violations:
            sys.stderr.write(f"violation: {v}\n")
        return 1
    return 0


# -------------------------------------------------------------------- scan

def _scan_cell(cell):
    family, p, m, samples, seed, cap = cell
    rows = []
    if m >= p:
        return rows
    if family == "sharp":
        systems = [constructions.sharp_case_lattice(constructions.SharpCaseSpec(p, m))]
    else:
        rng = random.Random(seed * 1000003 + p * 1009 + m)
        systems = []
        for _ in range(samples):
            coeffs = tuple(rng.sample(range(1, p), m))
            systems.append(CongruenceSystem((p,), (coeffs,)))
    bound = constructions.conjecture_bound(p, m)
    for system in systems:
        L = from_congruences(system)
        try:
            ds = dspan(L, cap=cap).value
            bf = bfield(L, cap=cap).value
            br = bfieldr(L, cap=cap).value
            rows.append({
                "p": p, "m": m, "family": family,
                "coefficients": list(system.coefficients[0]),
                "dspan": ds, "bfield": bf, "bfieldr": br,
                "conjecture_bound": bound,
                "meets_bound": bf <= bound, "flag": "",
            })
        except CapExceededError as exc:
            rows.append({
                "p": p, "m": m, "family": family,
                "coefficients": list(system.coefficients[0]),
                "dspan": None, "bfield": None, "bfieldr": None,
                "conjecture_bound": bound,
                "meets_bound": None, "flag": f"cap-exceeded:{exc.which}",
            })
    return rows


def cmd_scan(args, out):
    jobs = resolve_jobs(args.jobs)
    primes = [p for p in parse_range(args.primes) if constructions.is_prime(p)]
    if not primes:
        raise ValueError("no primes in range")
    cells = [(args.family, p, m, args.samples, args.seed, args.cap)
             for p in primes for m in parse_range(args.m)]
    rows = [r for cell_rows in parallel_map(_scan_cell, cells, jobs)
            for r in cell_rows]
    if args.format == "json":
        out.write(json.dumps({"rows": rows}) + "\n")
    else:
        header = ["p", "m", "family", "coefficients", "dspan", "bfield",
                  "bfieldr", "conjecture_bound", "meets_bound", "flag"]
        table = [
            (r["p"], r["m"], r["family"], csv_cell(r["coefficients"]),
             r["dspan"], r["bfield"], r["bfieldr"], r["conjecture_bound"],
             r["meets_bound"], r["flag"])
            for r in rows
        ]
        if args.format == "csv":
            emit_csv(header, [["" if x is None else x for x in t] for t in table], out)
        else:
            for t in table:
                out.write("  ".join(str(x) for x in t) + "\n")
            out.write(f"{len(table)} rows\n")
    return 0


# --------------------------------------------------------------- construct

def cmd_construct(args, out):
    name, params = parse_construct(args.spec)
    if name in ("sharp", "counterexample"):
        system = system_from_construct(args.spec)
        L = from_congruences(system)
        payload = dict(system.to_jsonable(), index=L.index)
    elif name == "dihedral":
        n = params["n"]
        payload = {"n": n, "dspan": constructions.dihedral_dspan(n)}
    elif name == "dicyclic":
        n = params["n"]
        payload = {"n": n, "dspan": constructions.dicyclic_dspan(n),
                   "witness_ok": constructions.dicyclic_witness_check(n)}
    else:
        raise ValueError(f"unknown construction {name!r}")
    if args.format == "json":
        out.write(json.dumps(payload) + "\n")
    elif args.format == "csv":
        def cell(v):
            if isinstance(v, list) and v and isinstance(v[0], list):
                return ";".join(csv_cell(r) for r in v)
            return csv_cell(v) if isinstance(v, list) else v
        emit_csv(["key", "value"], [(k, cell(v)) for k, v in payload.items()], out)
    else:
        for k, v in payload.items():
            out.write(f"{k}: {v}\n")
    return 0


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
    add_common_args(p)
    p.set_defaults(fn=cmd_bounds)

    p = subs.add_parser("minima", help="successive minima and Minkowski check")
    add_lattice_args(p)
    p.add_argument("--cap", type=int, default=None)
    add_common_args(p)
    p.set_defaults(fn=cmd_minima)

    p = subs.add_parser("basis", help="generating-degree basis and dual-pair lift")
    add_lattice_args(p)
    add_common_args(p)
    p.set_defaults(fn=cmd_basis)

    p = subs.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--n", default=None, help="index range for hrd / counterexample")
    p.add_argument("--random", type=int, default=100, help="sample size for property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", default="2..4")
    p.add_argument("--nmax", type=int, default=30)
    p.add_argument("--primes", default="5..13")
    add_common_args(p)
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("scan", help="per-(p, m) bound table")
    p.add_argument("--primes", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--family", choices=("sharp", "random"), default="sharp")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=None)
    add_common_args(p)
    p.set_defaults(fn=cmd_scan)

    p = subs.add_parser("construct", help="emit a named construction")
    p.add_argument("spec", help="e.g. sharp:p=5,m=2 or dicyclic:n=3")
    add_common_args(p)
    p.set_defaults(fn=cmd_construct)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.n is None:
        args.n = "6,8,10,12" if args.suite == "counterexample" else "1..24"
    try:
        return args.fn(args, out)
    except CapExceededError as exc:
        sys.stderr.write(f"cap exceeded while computing {exc.which} "
                         f"(cap {exc.cap})\n")
        return 3
    except (InvalidSystemError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def console_main():
    sys.exit(main())
