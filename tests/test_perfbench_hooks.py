"""The benchmark's tracer (perfbench/tracer.py) against the package.

The tracer wraps invlat by rebinding the names callers use: module
attributes, module-level dict entries and methods of LatticeBasis and
GeneratedLattice.  A wrapped name that is renamed or deleted would
otherwise only show under `perfbench/run.py --trace 1`.
"""

import importlib.util
import io
from pathlib import Path

import invlat
import invlat.cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("ball_enum", "cli", "constructions", "degree_bounds", "geomnum",
           "lattice_core", "parallel", "rank2")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name the tracer may rebind, mapped to what it is bound to."""
    out = {}
    lc = invlat.lattice_core
    for mod in [invlat] + [getattr(invlat, name) for name in MODULES]:
        for attr, value in vars(mod).items():
            out[f"{mod.__name__}.{attr}"] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for k, v in value.items():
                    out[f"{mod.__name__}.{attr}[{k!r}]"] = v
    for cls in (lc.LatticeBasis, lc.GeneratedLattice):
        for attr, value in vars(cls).items():
            out[f"{cls.__qualname__}.{attr}"] = value
    return out


def test_tracer_counts_hot_calls_and_restores_every_name():
    tracer = load_tracer().Tracer()
    before = bindings()
    tracer.install(invlat)
    try:
        rebound = {k for k, v in bindings().items() if v is not before.get(k)}
        # bounds adds to and tests an accumulator; dspan steps by label, so
        # the reductions come from the weight-bite check
        codes = [invlat.cli.main(argv, io.StringIO()) for argv in (
            ["bounds", "--congruence", '{"moduli":[5],"coefficients":[[1,4]]}', "-f", "json"],
            ["verify", "bite", "--random", "2", "--nmax", "12", "--jobs", "1", "-f", "json"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert {"LatticeBasis.__contains__", "LatticeBasis.reduce", "GeneratedLattice.add",
            "GeneratedLattice.__contains__"} <= rebound
    for name in ("lattice_core.reduce", "lattice_core.generated.add",
                 "lattice_core.generated.contains"):
        assert tracer.stats[name][0] > 0, name
    after = bindings()
    assert [k for k in rebound if after.get(k) is not before.get(k)] == []


def test_hnf_and_kernel_work_is_not_charged_to_the_accumulator():
    # hnf_columns and integer_kernel run on the echelon step itself, not on
    # the GeneratedLattice.add the tracer rebinds, so a dspan run (which
    # adds nothing to an accumulator) counts HNF calls and no adds.  A
    # one-row system is built in closed form, so two rows take the kernel.
    tracer = load_tracer().Tracer()
    tracer.install(invlat)
    try:
        code = invlat.cli.main(
            ["bounds", "--which", "dspan", "--congruence",
             '{"moduli":[6,4],"coefficients":[[1,2],[3,1]]}', "-f", "json"],
            io.StringIO())
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.stats["lattice_core.hnf"][0] > 0
    assert tracer.stats["lattice_core.generated.add"][0] == 0
