"""Spans and counters around the calls into each invlat module.

The wrappers live here, in the benchmark, and are installed by rebinding the
names callers use: module attributes (including names a module imported from
another, such as cli.dspan or geomnum.shell_points), dict entries such as
cli.BOUND_FUNCS, and methods on LatticeBasis and GeneratedLattice.  Nothing in
the program is edited.

Coarse calls become spans with a parent id.  Hot calls (membership, reduce,
GeneratedLattice methods, HNF and kernel, shell-generator resumptions) are
leaves: only their count and summed time are kept, charged to the enclosing
span.  A name's self time is its duration minus what its children cover, so
the self times of all names add up to the time inside cli.main.
"""

from __future__ import annotations

import time
from collections import defaultdict

perf = time.perf_counter

# public functions that get a span of their own, by module
SPANS = {
    "cli": ("main",),
    "lattice_core": ("from_congruences",),
    "degree_bounds": ("dspan", "bfield", "bfieldr", "verify_bound_relations"),
    "geomnum": ("successive_minima", "minkowski_check", "mahler_basis",
                "gen_deg_basis", "complete_basis_short", "dual_pair_lift"),
    "rank2": ("hrd_verify", "he_analysis"),
}
# leaf functions that are only counted and timed: (module, name, stat name)
LEAVES = (
    ("lattice_core", "hnf_columns", "lattice_core.hnf"),
    ("lattice_core", "integer_kernel", "lattice_core.hnf"),
    ("constructions", "sharp_case_lattice", "constructions"),
    ("constructions", "is_prime", "constructions"),
    ("constructions", "conjecture_bound", "constructions"),
)
GENERATORS = (("ball_enum", "shell_points"), ("ball_enum", "points_up_to"))


class Tracer:
    """Per-name [calls, self seconds, extra] plus the list of spans.

    extra is a name-specific count: points yielded for ball_enum, True
    results for lattice_core.contains, items for parallel.map and the sum of
    returned values for degree_bounds.dspan.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0])
        self.spans = []  # (id, parent id, name, start, end)
        self._stack = [[0.0, 0]]  # open frames: [seconds covered by children, span id]
        self._next_id = 0
        self._enum_depth = 0
        self._undo = []

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, extra=None):
        stat, stack, spans = self.stats[name], self._stack, self.spans

        def wrapper(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1]
            frame = [0.0, self._next_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent[0] += t1 - t0
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
                spans.append((frame[1], parent[1], name, t0, t1))
            if extra is not None:
                stat[2] += extra(result)
            return result
        return wrapper

    def leaf(self, name, fn, count_true=False):
        stat, stack = self.stats[name], self._stack

        def wrapper(*args):
            t0 = perf()
            result = fn(*args)
            dt = perf() - t0
            stat[0] += 1
            stat[1] += dt
            stack[-1][0] += dt
            if count_true and result:
                stat[2] += 1
            return result
        return wrapper

    def generator(self, name, fn):
        """Times every resumption; a generator created while another traced
        one is resuming (points_up_to calling shell_points) is left bare."""
        stat, stack = self.stats[name], self._stack

        def timed(it):
            while True:
                self._enum_depth += 1
                t0 = perf()
                try:
                    v = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf() - t0
                    self._enum_depth -= 1
                    stat[1] += dt
                    stack[-1][0] += dt
                stat[2] += 1
                yield v

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if self._enum_depth:
                return it
            stat[0] += 1
            return timed(it)
        return wrapper

    def parallel(self, fn, attribute_workers):
        """parallel_map: a span counting items.  With attribute_workers the
        in-process path (jobs=1) also gets a span per item, named after the
        worker's module, so worker code is not charged to parallel.map."""
        span = self.span("parallel.map", fn)
        stat = self.stats["parallel.map"]
        workers = {}

        def wrapper(worker, items, jobs=1):
            items = list(items)
            stat[2] += len(items)
            if attribute_workers and (jobs == 1 or len(items) <= 1):
                if worker not in workers:
                    layer = worker.__module__.rsplit(".", 1)[-1]
                    workers[worker] = self.span(f"{layer}.worker", worker)
                worker = workers[worker]
            return span(worker, items, jobs)
        return wrapper

    # ------------------------------------------------------------- install

    def _rebind(self, original, wrapped, modules):
        """Point every module attribute and module-level dict entry that is
        `original` at `wrapped`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapped)

    def _set(self, target, key, value):
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self, package, full=True):
        """Wrap package's modules.  full=False wraps only parallel_map, and
        leaves its workers bare, for passes whose workers run in other
        processes."""
        mods = {name: getattr(package, name) for name in (
            "ball_enum", "cli", "constructions", "degree_bounds", "geomnum",
            "lattice_core", "parallel", "rank2")}
        modules = [package] + list(mods.values())
        self._rebind(mods["parallel"].parallel_map,
                     self.parallel(mods["parallel"].parallel_map, full), modules)
        if not full:
            return
        for mod, names in SPANS.items():
            for fname in names:
                fn = getattr(mods[mod], fname)
                extra = (lambda rep: rep.value) if fname == "dspan" else None
                self._rebind(fn, self.span(f"{mod}.{fname}", fn, extra), modules)
        for mod, fname, name in LEAVES:
            fn = getattr(mods[mod], fname)
            self._rebind(fn, self.leaf(name, fn), modules)
        for mod, fname in GENERATORS:
            fn = getattr(mods[mod], fname)
            self._rebind(fn, self.generator("ball_enum", fn), modules)
        lc = mods["lattice_core"]
        for cls, attr, name, count_true in (
                (lc.LatticeBasis, "__contains__", "lattice_core.contains", True),
                (lc.LatticeBasis, "reduce", "lattice_core.reduce", False),
                (lc.GeneratedLattice, "add", "lattice_core.generated.add", False),
                (lc.GeneratedLattice, "__contains__", "lattice_core.generated.contains", False)):
            self._set(cls, attr, self.leaf(name, vars(cls)[attr], count_true))

    def uninstall(self):
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
