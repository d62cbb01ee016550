"""Acceptance gate: ten criteria, one test and one pass/fail line each.

`pytest -v tests/test_acceptance.py` is the report.  Every check is exact
integer or rational arithmetic; the sampled criteria share one seeded
200-system sample, and criterion 10 recomputes each criterion's report to
confirm byte-identical output.
"""

import io
import json
import math
from fractions import Fraction

import pytest

import oracles
from invlat.cli import main as cli_main
from invlat.constructions import (
    SharpCaseSpec,
    conjecture_bound,
    counterexample_check,
    dicyclic_dspan,
    dicyclic_witness_check,
    dihedral_dspan,
    is_prime,
    sharp_case_lattice,
)
from invlat.degree_bounds import bfield, bfieldr, dspan
from invlat.geomnum import (
    complete_basis_short,
    dual_pair_lift,
    effective_minima_bounds,
    gen_deg_basis,
    mahler_basis,
    minkowski_check,
)
from invlat.lattice_core import (
    CongruenceSystem,
    from_congruences,
    is_generating,
    l1norm,
)
from invlat.rank2 import hrd_verify
from invlat.sampling import random_congruence_systems

SAMPLE_SEED = 7
SAMPLE_SIZE = 200


def _sample():
    return random_congruence_systems(SAMPLE_SIZE, seed=SAMPLE_SEED,
                                     m_choices=(2, 3, 4), n_max=50)


@pytest.fixture(scope="module")
def sample():
    return _sample()


def kernel(n, coeffs):
    return from_congruences(CongruenceSystem((n,), (tuple(coeffs),)))


def det_of(vectors):
    return oracles.det_laplace(vectors)


def _cli(argv):
    out = io.StringIO()
    assert cli_main(argv, out) == 0
    return out.getvalue()


# ---------------------------------------------------------------- criterion 1

def _sharp_cases():
    cases = [SharpCaseSpec(p, m) for p in (5, 7, 11, 13) for m in (2, 3, 4)]
    # the three non-default choices at p=7, m=3 (the default -2 is above)
    cases += [SharpCaseSpec(7, 3, miss) for miss in (1, -1, 2)]
    return cases


def _digest_sharp():
    rows = []
    for spec in _sharp_cases():
        L = from_congruences(sharp_case_lattice(spec))
        rows.append({"p": spec.p, "m": spec.m, "missing": spec.missing,
                     "bfield": bfield(L).value, "bfieldr": bfieldr(L).value})
    return json.dumps(rows)


def test_criterion_01_sharp_case_equality():
    cases = _sharp_cases()
    for spec in cases:
        L = from_congruences(sharp_case_lattice(spec))
        expected = conjecture_bound(spec.p, spec.m)
        assert bfield(L).value == expected, spec
        assert bfieldr(L).value == expected, spec
    print(f"CRITERION 1 PASS: bfield = bfieldr = ceil(p / ceil(m/2)) "
          f"on all {len(cases)} sharp cases")


# ---------------------------------------------------------------- criterion 2

def _digest_cyclic():
    rows = []
    for n in (4, 6, 8, 10, 12):
        for coeffs in ((1, n - 1), (1, 2)):
            rows.append({"n": n, "coefficients": list(coeffs),
                         "report": dspan(kernel(n, coeffs)).to_jsonable()})
    return json.dumps(rows)


def test_criterion_02_cyclic_dspan():
    for n in (4, 6, 8, 10, 12):
        for coeffs in ((1, n - 1), (1, 2)):
            assert dspan(kernel(n, coeffs)).value == n // 2, (n, coeffs)
    print("CRITERION 2 PASS: dspan = n/2 for [[1, n-1]] and [[1, 2]] mod n, "
          "n in {4,6,8,10,12}")


# ---------------------------------------------------------------- criterion 3

def _digest_counterexample():
    return json.dumps([counterexample_check(n).to_jsonable()
                       for n in (6, 8, 10, 12)])


def test_criterion_03_composite_counterexample():
    for n in (6, 8, 10, 12):
        rep = counterexample_check(n)
        assert rep.bfieldr >= n // 2 > rep.bound, n
        assert rep.vectors_in_lattice and rep.d_matches, n
        assert rep.d_vector == (2, -2, 0, 2, -2)
        assert rep.ok
    print("CRITERION 3 PASS: bfieldr >= n/2 > ceil(n/3) for n in "
          "{6,8,10,12}, D = (2,-2,0,2,-2)")


# ---------------------------------------------------------------- criterion 4

def _digest_hrd():
    return "\n".join(hrd_verify(n).to_json() for n in range(1, 25))


def test_criterion_04_hrd_exhaustive():
    rows_checked = 0
    for n in range(1, 25):
        rep = hrd_verify(n)
        assert rep.violations == (), (n, rep.violations)
        assert rep.count == rep.sigma
        for row in rep.rows:
            if row.excluded:
                continue
            # he_analysis ran clean: triangle and segment facts verified
            assert row.forms_basis in (True, False)
            assert row.dspan <= n // 2
            assert row.bound_ok is True
            rows_checked += 1
    print(f"CRITERION 4 PASS: dspan <= floor(n/2) and staircase structure "
          f"on all {rows_checked} non-excluded sublattices, n <= 24")


# ---------------------------------------------------------------- criterion 5

def _digest_geometry():
    parts = []
    for system in _sample():
        L = from_congruences(system)
        mk = minkowski_check(L)
        mb = mahler_basis(L)
        entry = {
            "system": system.to_jsonable(),
            "minima": list(mb.minima.values),
            "mahler": [list(v) for v in mb.vectors],
            "minkowski": [mk.product, mk.bound, mk.ok],
        }
        if is_prime(L.index):
            entry["enclosures"] = [str(b) for b in
                                   effective_minima_bounds(system.m, L.index)]
        parts.append(json.dumps(entry))
    return "\n".join(parts)


def test_criterion_05_geometry_properties(sample):
    assert len(sample) == SAMPLE_SIZE
    prime_cases = 0
    for system in sample:
        L = from_congruences(system)
        m, n = system.m, L.index
        mk = minkowski_check(L)
        assert mk.ok and mk.bound == math.factorial(m) * n, system
        mb = mahler_basis(L)  # would raise if any norm exceeded i * lambda_i
        for i, (v, nrm) in enumerate(zip(mb.vectors, mb.norms), start=1):
            assert nrm == l1norm(v) <= i * mb.minima.values[i - 1], system
        assert det_of(mb.vectors) == n, system
        if is_prime(n):
            prime_cases += 1
            lam = mb.minima.values
            assert lam[m - 2] ** 2 <= math.factorial(m) * n, system
            bounds = effective_minima_bounds(m, n)
            for i in range(m - 1):
                assert mb.norms[i] <= bounds[i], system
    assert prime_cases > 0
    print(f"CRITERION 5 PASS: Minkowski, Mahler norms, det = +index on "
          f"{SAMPLE_SIZE} lattices; minima bound and enclosures on "
          f"{prime_cases} prime-index cases")


# ---------------------------------------------------------------- criterion 6

def _digest_bstar():
    parts = []
    for system in _sample():
        L = from_congruences(system)
        if not is_prime(L.index):
            continue
        comp = complete_basis_short(L, mahler_basis(L).vectors[:-1])
        parts.append(json.dumps({
            "system": system.to_jsonable(),
            "bstar": list(comp.bstar),
            "dstar": comp.dstar,
            "form": list(comp.form.coefficients),
            "norm_bound": str(comp.norm_bound),
        }))
    return "\n".join(parts)


def test_criterion_06_bstar_completion(sample):
    checked = 0
    for system in sample:
        L = from_congruences(system)
        if not is_prime(L.index):
            continue
        shorts = mahler_basis(L).vectors[:-1]
        comp = complete_basis_short(L, shorts)
        d_dot = sum(c * x for c, x in zip(comp.form.coefficients, comp.bstar))
        assert d_dot == L.index, system
        assert abs(det_of(list(shorts) + [comp.bstar])) == L.index, system
        assert l1norm(comp.bstar) <= comp.norm_bound, system
        assert comp.norm_bound == (
            Fraction(L.index, abs(comp.dstar))
            + sum(l1norm(b) for b in shorts)), system
        checked += 1
    assert checked > 0
    print(f"CRITERION 6 PASS: D . b* = index, det = +-index, norm bound "
          f"on {checked} prime-index completions")


# ---------------------------------------------------------------- criterion 7

def _lift_cases():
    cases = []
    for p in (5, 7, 11, 13):
        half = (p - 1) // 2
        cases += [(p, (k,)) for k in range(1, half + 1)]
        cases += [(p, (k1, k2)) for k1 in range(1, half + 1)
                  for k2 in range(k1 + 1, half + 1)]
    return cases


def _lift_system(p, ks):
    coeffs = []
    for k in ks:
        coeffs += [k, p - k]
    return CongruenceSystem((p,), (tuple(coeffs),))


def _digest_lift():
    rows = []
    for p, ks in _lift_cases():
        system = _lift_system(p, ks)
        L = from_congruences(system)
        gd = gen_deg_basis(L)
        pairs = [(2 * i, 2 * i + 1) for i in range(len(ks))]
        lifted = dual_pair_lift(L, pairs, gd.vectors)
        rows.append({"p": p, "ks": list(ks),
                     "lifted": [list(v) for v in lifted],
                     "bfield": bfield(L).value})
    return json.dumps(rows)


def test_criterion_07_dual_pair_lift():
    cases = _lift_cases()
    for p, ks in cases:
        system = _lift_system(p, ks)
        L = from_congruences(system)
        gd = gen_deg_basis(L)
        pairs = [(2 * i, 2 * i + 1) for i in range(len(ks))]
        lifted = dual_pair_lift(L, pairs, gd.vectors)
        assert all(min(v) >= 0 for v in lifted), (p, ks)
        assert is_generating(L, lifted), (p, ks)
        mx = max(l1norm(v) for v in lifted)
        assert mx <= max(gd.max_norm, 2), (p, ks)
        exact = oracles.oracle_generation(system, "nonnegative")
        assert bfield(L).value == exact, (p, ks)
        assert exact <= mx, (p, ks)
    print(f"CRITERION 7 PASS: nonnegative lift generates with max norm <= "
          f"max(gen_deg, 2) and bfield confirmed on {len(cases)} "
          f"inverse-closed sets")


# ---------------------------------------------------------------- criterion 8

def _digest_relations():
    rows = []
    for system in _sample():
        L = from_congruences(system)
        rows.append([system.moduli[0], list(system.coefficients[0]),
                     dspan(L).value, bfield(L).value, bfieldr(L).value])
    return json.dumps(rows)


def test_criterion_08_bound_relations(sample):
    for system in sample:
        L = from_congruences(system)
        ds = dspan(L).value
        bf = bfield(L).value
        br = bfieldr(L).value
        assert br <= bf <= 2 * ds + 1, system
        assert ds <= L.index - 1, system
        assert bf <= L.index, system
    print(f"CRITERION 8 PASS: bfieldr <= bfield <= 2 dspan + 1, "
          f"dspan <= index - 1, bfield <= index on {SAMPLE_SIZE} lattices")


# ---------------------------------------------------------------- criterion 9

def _digest_dicyclic():
    return json.dumps([[n, dicyclic_dspan(n), dicyclic_witness_check(n)]
                       for n in (2, 3, 5, 7)])


def test_criterion_09_dicyclic_witness():
    for n in (2, 3, 5, 7):
        assert dicyclic_witness_check(n), n
        assert dicyclic_dspan(n) == n + 1
    # dihedral closed form starts at n = 3
    for n in (3, 5, 7):
        assert dihedral_dspan(n) == n
    print("CRITERION 9 PASS: witness points (n-1,0) and (n,1) verified for "
          "n in {2,3,5,7}; closed forms match")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(sample):
    assert _sample() == sample
    digests = [
        ("sharp", _digest_sharp),
        ("cyclic", _digest_cyclic),
        ("counterexample", _digest_counterexample),
        ("hrd", _digest_hrd),
        ("geometry", _digest_geometry),
        ("bstar", _digest_bstar),
        ("lift", _digest_lift),
        ("relations", _digest_relations),
        ("dicyclic", _digest_dicyclic),
    ]
    for name, fn in digests:
        assert fn() == fn(), f"{name} report is not reproducible"
    # fan-out across worker processes must not change a byte
    assert hrd_verify(24, jobs=2).to_json() == hrd_verify(24).to_json()
    scan = ["scan", "--primes", "5..13", "--m", "2..4", "--family", "random",
            "--samples", "2", "--seed", "3", "--format", "json"]
    assert _cli(scan) == _cli(scan + ["--jobs", "2"])
    verify = ["verify", "sharp", "--primes", "5..13", "--m", "2..4",
              "--format", "json"]
    assert _cli(verify) == _cli(verify + ["--jobs", "2"])
    print("CRITERION 10 PASS: every report byte-identical across re-runs "
          "and worker counts")
