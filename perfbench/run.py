"""invlat benchmark: seeded batch workloads through invlat.cli.main, in-process.

    python3 perfbench/run.py --workload sharp-search --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the program is imported from the src/ directory next to
this one and nowhere else.  One caller runs the cases in a closed loop: the
next cli.main call starts when the previous one has returned and its output
has been checked.

--trace 0 measures: whole passes of the workload's case list run until
--seconds have passed and at least MIN_CASES cases are done, then fresh
interpreters are timed for setup_s.  Times are scaled to a reference machine
speed measured by a calibration loop between cases (see Clock); the raw times
are printed beside them.  The end-to-end metrics are printed by name and
unit, then the result line.

--trace 1 traces one pass (pass 0, jobs=1) twice, checks that every count
repeats exactly, and reports the per-layer metrics, the tracing overhead
against an untraced pass, and, where the workload fans out, parallel.* from
a pass at the measured job count.  It runs a fixed amount of work, so
--seconds does not apply.

The last line of stdout is always one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for what each metric should
move and on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CASES = 100          # so that p90 has at least ten cases beyond it
TAIL_PERCENTILE = 90
HARD_STOP_S = 140        # stop starting passes after this, whatever --seconds says
SETUP_SPAWNS = 11
CALIB_ITERS = 7000
CALIB_REF_S = 0.0007     # the calibration loop's time at reference speed
SETUP_ARGV = ["construct", "dihedral:n=3"]
EXPECTED = HERE / "expected_digests.json"
SPANS_DIR = HERE / "out"

perf = time.perf_counter


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def load_program():
    """Import invlat from ROOT/src only, or exit nonzero when it is absent."""
    if not (SRC / "invlat" / "cli.py").is_file():
        fail(f"no program to measure: {SRC / 'invlat'} is missing")
    sys.path.insert(0, str(SRC))
    import invlat
    import invlat.cli
    if Path(invlat.__file__).resolve().parent != SRC / "invlat":
        fail(f"imported invlat from {invlat.__file__}, not from {SRC}")
    return invlat


def nproc():
    return len(os.sched_getaffinity(0))


def meta():
    """What the numbers were measured on: interpreter, cores and code."""
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    lines = sum(len(p.read_text().splitlines()) for p in files if p.suffix == ".py")
    return {"python": platform.python_version(), "nproc": nproc(), "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16], "src_py_lines": lines}


def git_commit():
    """HEAD of a git checkout, read from .git without running git; None in an
    exported tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ------------------------------------------------------------------ passes

class Tally:
    """Cases attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, case, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{' '.join(case.argv)}: {'; '.join(problems[:3])}")


def run_case(cli, case):
    """One closed-loop call: (seconds, exit code or None, stdout, error)."""
    out = io.StringIO()
    err = None
    t0 = perf()
    try:
        rc = cli.main(list(case.argv), out)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any escape is a failed case, and the run goes on
        rc, err = None, repr(exc)
    return perf() - t0, rc, out.getvalue(), err


def run_pass(cli, cases, tally, clock=None):
    """Run one case list; returns (latencies, latencies at reference speed,
    outputs).  The second list is empty without a clock."""
    raw, norm, outputs = [], [], []
    for case in cases:
        dt, rc, text, err = run_case(cli, case)
        raw.append(dt)
        if clock is not None:
            norm.append(clock.normalise(dt))
        outputs.append(text)
        tally.record(case, [err] if err else case.problems(rc, text))
    return raw, norm, outputs


def calibrate():
    """Seconds for a fixed pure-Python loop, the best of three so that a
    preempted loop does not count; CALIB_REF_S over it is the machine's
    speed at this moment."""
    best = math.inf
    for _ in range(3):
        t0 = perf()
        acc = 0
        for i in range(CALIB_ITERS):
            acc += (i * i) % 7
            pair = (i, acc)
        best = min(best, perf() - t0)
    del pair
    return best


class Clock:
    """Times calls in seconds at reference speed: the raw time scaled by
    CALIB_REF_S over the mean of the calibration loops run just before and
    just after the call.  Also keeps the raw times."""

    def __init__(self):
        self.last = calibrate()
        self.calibs = [self.last]

    def normalise(self, raw):
        nxt = calibrate()
        self.calibs.append(nxt)
        speed = CALIB_REF_S / ((self.last + nxt) / 2)
        self.last = nxt
        return raw * speed


def digest(outputs):
    return hashlib.sha256("".join(outputs).encode()).hexdigest()


def digest_problem(workload, seed, got):
    """A mismatch with the digest recorded for this workload and seed."""
    recorded = json.loads(EXPECTED.read_text())
    want = recorded["digests"].get(workload) if seed == recorded["seed"] else None
    if want is not None and want != got:
        return f"pass-0 output digest {got} != recorded {want} for seed {seed}"
    return None


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def peak_rss_mib(with_children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def setup_times(clock):
    """Fresh interpreters that import invlat.cli and run one tiny command:
    (median raw seconds, median normalised seconds, problems)."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from invlat.cli import main; "
            f"sys.exit(main({SETUP_ARGV!r}))")
    raw, norm, problems = [], [], []
    for i in range(SETUP_SPAWNS + 1):
        t0 = perf()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        dt = perf() - t0
        if proc.returncode != 0 or not proc.stdout.startswith("n: 3\n"):
            problems.append(f"setup run exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        scaled = clock.normalise(dt)
        if i:  # the first spawn only warms the bytecode and file caches
            raw.append(dt)
            norm.append(scaled)
    return statistics.median(raw), statistics.median(norm), problems


# ----------------------------------------------------------- metric run

def measure(invlat, workload, seed, seconds):
    from cases import Workload

    cli = invlat.cli
    jobs = min(2, nproc())
    wl = Workload(workload, seed, jobs=jobs)
    tally = Tally()
    cli.main(SETUP_ARGV, io.StringIO())  # warm argparse and json paths
    clock = Clock()
    raw, norm, pass_walls, raw_walls = [], [], [], []
    seen, reused, problems = set(), 0, []
    t_start = perf()
    k = 0
    while k == 0 or ((perf() - t_start < seconds or len(norm) < MIN_CASES)
                     and perf() - t_start < HARD_STOP_S):
        cases = wl.cases(k)
        lat_raw, lat, outputs = run_pass(cli, cases, tally, clock)
        if k == 0:
            pass0 = digest(outputs)
            problems.append(digest_problem(workload, seed, pass0))
        for case in cases:
            reused += case.key in seen
            seen.add(case.key)
        raw += lat_raw
        norm += lat
        pass_walls.append(sum(lat))
        raw_walls.append(sum(lat_raw))
        k += 1
    elapsed = perf() - t_start
    rss = peak_rss_mib(with_children=workload == "small-sweep")
    setup_raw, setup_s, setup_problems = setup_times(clock)
    problems = [p for p in problems + setup_problems if p]
    n = len(norm)
    beyond = n - math.ceil(TAIL_PERCENTILE / 100 * n)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_walls), "s"),
        "case_p50_s": (statistics.median(norm), "s"),
        "case_tail_s": (percentile(norm, TAIL_PERCENTILE), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    notes = {
        "wall_s": f"median of {k} passes of {len(cases)} cases; raw {statistics.median(raw_walls):.6f} s",
        "case_p50_s": f"{n} cases; raw {statistics.median(raw):.6f} s",
        "case_tail_s": f"p{TAIL_PERCENTILE} of {n} cases, {beyond} beyond it; "
                       f"raw {percentile(raw, TAIL_PERCENTILE):.6f} s",
        "setup_s": f"median of {SETUP_SPAWNS} fresh interpreters running "
                   f"{' '.join(SETUP_ARGV)}; raw {setup_raw:.6f} s",
        "peak_rss_mib": "this process" + (" plus its largest child" if workload == "small-sweep" else ""),
    }
    info = {
        "failed_ratio": f"{tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted})",
        "input_reuse": f"{reused / n:.4f} of cases reuse an input already run",
        "calibration_s": f"median {statistics.median(clock.calibs):.6f}, min {min(clock.calibs):.6f}, "
                         f"max {max(clock.calibs):.6f} over {len(clock.calibs)} loops; "
                         f"reference {CALIB_REF_S}",
        "jobs": jobs, "passes": k, "measured_s": round(elapsed, 3),
        "digest_pass0": pass0,
    }
    return tally, problems, metrics, notes, info


# ------------------------------------------------------------ traced run

def per_layer(stats, outputs, traced_wall):
    def st(name):
        return stats.get(name, [0, 0.0, 0])

    m = {}
    calls, self_s, points = st("ball_enum")
    m["ball_enum.points"] = (points, "count")
    m["ball_enum.self_s"] = (self_s, "s")
    m["ball_enum.points_per_s"] = (points / self_s if self_s else 0.0, "1/s")
    calls, self_s, hits = st("lattice_core.contains")
    m["lattice_core.contains.calls"] = (calls, "count")
    m["lattice_core.contains.hits"] = (hits, "count")
    m["lattice_core.contains.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    m["lattice_core.contains.self_s"] = (self_s, "s")
    for name in ("reduce", "hnf", "from_congruences"):
        c, s, _ = st(f"lattice_core.{name}")
        m[f"lattice_core.{name}.calls"] = (c, "count")
        m[f"lattice_core.{name}.self_s"] = (s, "s")
    add, cont = st("lattice_core.generated.add"), st("lattice_core.generated.contains")
    m["lattice_core.generated.adds"] = (add[0], "count")
    m["lattice_core.generated.contains_calls"] = (cont[0], "count")
    m["lattice_core.generated.self_s"] = (add[1] + cont[1], "s")
    for name in ("dspan", "bfield", "bfieldr"):
        c, s, _ = st(f"degree_bounds.{name}")
        m[f"degree_bounds.{name}.calls"] = (c, "count")
        m[f"degree_bounds.{name}.self_s"] = (s, "s")
    m["degree_bounds.dspan.radius"] = (st("degree_bounds.dspan")[2], "count")
    for name in ("successive_minima", "mahler_basis", "gen_deg_basis", "complete_basis_short"):
        c, s, _ = st(f"geomnum.{name}")
        m[f"geomnum.{name}.calls"] = (c, "count")
        m[f"geomnum.{name}.self_s"] = (s, "s")
    for name in ("hrd_verify", "he_analysis"):
        c, s, _ = st(f"rank2.{name}")
        m[f"rank2.{name}.calls"] = (c, "count")
        m[f"rank2.{name}.self_s"] = (s, "s")
    cli_self = sum(v[1] for k, v in stats.items() if k.startswith("cli."))
    m["cli.self_s"] = (cli_self, "s")
    m["cli.output_bytes"] = (sum(len(o.encode()) for o in outputs), "count")
    m["traced_wall_s"] = (traced_wall, "s")
    return m


def module_shares(stats, traced_wall):
    by_module = {}
    for name, (_, self_s, _) in stats.items():
        mod = name.split(".", 1)[0]
        by_module[mod] = by_module.get(mod, 0.0) + self_s
    return {mod: round(s / traced_wall, 4) for mod, s in sorted(by_module.items())}


def counts_of(stats):
    return {name: (v[0], v[2]) for name, v in sorted(stats.items())}


def traced_pass(invlat, cases, tally, full=True):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(invlat, full=full)
    try:
        lat, _, outputs = run_pass(invlat.cli, cases, tally)
    finally:
        tracer.uninstall()
    return tracer, lat, outputs


def trace(invlat, workload, seed):
    from cases import Workload

    cli = invlat.cli
    jobs = min(2, nproc())
    wl = Workload(workload, seed, jobs=jobs)
    tally = Tally()
    problems = []
    cases = wl.cases(0, jobs=1)
    cli.main(SETUP_ARGV, io.StringIO())
    lat_u, _, out_u = run_pass(cli, cases, tally)
    pass0 = digest(out_u)
    problems.append(digest_problem(workload, seed, pass0))
    runs = [traced_pass(invlat, cases, tally) for _ in range(2)]
    (t1, lat_t, out_t), (t2, _, out_t2) = runs
    counts1, counts2 = counts_of(t1.stats), counts_of(t2.stats)
    if counts1 != counts2:
        diff = {k: (v, counts2.get(k)) for k, v in counts1.items() if counts2.get(k) != v}
        problems.append(f"per-layer counts differ between two traced passes: {diff}")
    for out in (out_t, out_t2):
        if digest(out) != pass0:
            problems.append("traced outputs differ from untraced ones")
    wall_u, wall_t = sum(lat_u), sum(lat_t)
    metrics = per_layer(t1.stats, out_t, wall_t)
    items = t1.stats.get("parallel.map", [0, 0.0, 0])[2]
    par_wall = speedup = 0.0
    if items:
        tp, lat_p, out_p = traced_pass(invlat, wl.cases(0, jobs=jobs), tally, full=False)
        if digest(out_p) != pass0:
            problems.append(f"outputs at --jobs {jobs} differ from --jobs 1")
        items = tp.stats["parallel.map"][2]
        par_wall = sum(t1_ - t0 for _, _, name, t0, t1_ in tp.spans if name == "parallel.map")
        speedup = wall_u / sum(lat_p)
    metrics["parallel.map.items"] = (items, "count")
    metrics["parallel.map.wall_s"] = (par_wall, "s")
    metrics["parallel.speedup"] = (speedup, "x")
    write_spans(workload, seed, t1.spans)
    info = {
        "untraced_wall_s": round(wall_u, 6),
        "traced_wall_s": round(wall_t, 6),
        "tracing_overhead_s": round(wall_t - wall_u, 6),
        "self_share_by_module": module_shares(t1.stats, wall_t),
        "spans": len(t1.spans), "cases": len(cases),
        "speedup_jobs": jobs, "digest_pass0": pass0,
        "counts_repeat": counts1 == counts2,
    }
    return tally, [p for p in problems if p], metrics, {}, info


def write_spans(workload, seed, spans):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for sid, pid, name, t0, t1 in spans:
            fh.write(json.dumps({"id": sid, "parent": pid, "name": name,
                                 "start": t0, "end": t1}) + "\n")


# ------------------------------------------------------------------ report

def report(args, tally, problems, metrics, notes, info, wanted):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("meta " + json.dumps(meta()))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:42s} {value:>16.6f} {unit}{note}" if isinstance(value, float)
              else f"{name:42s} {value:>16d} {unit}{note}")
    for key, value in info.items():
        print(f"{key}: {value if isinstance(value, str) else json.dumps(value)}")
    for msg in tally.messages + problems:
        print(f"FAIL {msg}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }
    print(json.dumps(result), flush=True)


def run_all(args):
    """Each workload in its own interpreter; then one table of every metric."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {workload} exited {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "failed_ratio", res["failed"] / res["attempted"], "ratio"))
    print()
    for workload, name, value, unit in rows:
        print(f"{workload:14s} {name:42s} {value:>16.6f} {unit}")
    print(json.dumps(total), flush=True)


WORKLOAD_NAMES = ("sharp-search", "dspan-deep", "small-sweep")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    invlat = load_program()
    if args.workload == "all":
        return run_all(args)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    if args.trace:
        result = trace(invlat, args.workload, args.seed)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        result = measure(invlat, args.workload, args.seed, args.seconds)
        wanted = [m["name"] for m in spec["end_to_end"]]
    report(args, *result, wanted)


if __name__ == "__main__":
    main()
