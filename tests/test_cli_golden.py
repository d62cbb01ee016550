"""Whole CLI outputs, pinned: stdout and exit code of every subcommand in
every format.

`golden_cli.json` holds one entry per command of `COMMANDS` x `FORMATS`,
recorded from `invlat.cli.main` before the commands shared one output
emitter; the `bounds` entries of `TWO_ROW` and of the mod-12 row, which pin
comma-joined labels and labels sharing a factor with n, were recorded
before `to_jsonable` stopped copying dspan's witnesses; the three
commands after the `construct` ones, a capped and valued `scan --family random` cell, `verify sharp`
at odd m = 5 and `verify hrd` past n = 6, were recorded before each `scan`
and `verify` row was built once from a single tuple; the four `basis`
commands after them, the m = 5 counterexamples (D* = +2 at n = 8, D* = -4
at n = 6), the m = 1 system whose determinant form is that of zero vectors
and sharp p = 11 at m = 6, were recorded before determinant forms moved
from a Bareiss elimination onto the xgcd fold of geomnum.  `CHANGED` lists
the outputs changed on purpose since then, with their new text; every
other output must match the recording byte for byte.
"""

import io
import json
from pathlib import Path

import pytest

from invlat.cli import main

MOD4 = '{"moduli":[4],"coefficients":[[1,3]]}'
MOD5 = '{"moduli":[5],"coefficients":[[1,4]]}'
TWO_ROW = '{"moduli":[4,6],"coefficients":[[1,3,0],[0,1,5]]}'
SAMPLED = ["--random", "4", "--seed", "1", "--m", "2..3", "--nmax", "12"]

COMMANDS = [
    ["bounds", "--congruence", MOD4],
    ["bounds", "--congruence", TWO_ROW],
    ["bounds", "--congruence", '{"moduli":[12],"coefficients":[[2,4,6]]}'],
    ["bounds", "--construct", "sharp:p=7,m=3,missing=-1", "--which", "bfield,bfieldr"],
    ["bounds", "--congruence", MOD5, "--cap", "1", "--which", "bfield"],
    ["minima", "--congruence", MOD5],
    ["minima", "--construct", "sharp:p=7,m=3"],
    ["basis", "--construct", "sharp:p=5,m=2"],
    ["basis", "--construct", "sharp:p=5,m=3"],
    ["basis", "--congruence", TWO_ROW],
    ["verify", "hrd", "--n", "1..6"],
    ["verify", "counterexample"],
    ["verify", "sharp", "--primes", "5..7", "--m", "2..3"],
    ["verify", "relations", "--random", "6", "--seed", "3", "--nmax", "20"],
    ["verify", "minkowski", "--random", "6", "--seed", "3", "--nmax", "20"],
    ["verify", "blob", *SAMPLED],
    ["verify", "bite", *SAMPLED],
    ["scan", "--primes", "5..7", "--m", "2..3"],
    ["scan", "--primes", "5..7", "--m", "2..3", "--family", "random",
     "--samples", "2", "--seed", "0", "--cap", "4"],
    ["construct", "sharp:p=5,m=2"],
    ["construct", "sharp:p=7,m=3,missing=2"],
    ["construct", "counterexample:n=6"],
    ["construct", "dihedral:n=4"],
    ["construct", "dicyclic:n=3"],
    ["scan", "--family", "random", "--primes", "7..13", "--m", "3..4", "--samples", "3",
     "--seed", "3", "--cap", "3"],
    ["verify", "sharp", "--primes", "11", "--m", "5"],
    ["verify", "hrd", "--n", "7..9"],
    ["basis", "--construct", "counterexample:n=8"],
    ["basis", "--construct", "counterexample:n=6"],
    ["basis", "--congruence", '{"moduli":[5],"coefficients":[[1]]}'],
    ["basis", "--construct", "sharp:p=11,m=6"],
]
FORMATS = ("json", "csv", "pretty")

GOLDEN = Path(__file__).with_name("golden_cli.json")

# csv writes None as an empty cell (hrd groups n = 1, 2 have no
# non-excluded sublattice), scan's pretty rows take verify's h=v form, and
# blob's default radius is twice the largest dspan witness norm, not 2 * index
CHANGED = {
    "verify blob --random 4 --seed 1 --m 2..3 --nmax 12 -f json": (
        '{"suite": "blob", "cases": ['
        '{"system": {"moduli": [12], "coefficients": [[2, 5]]}, "ok": true, '
        '"detail": {"witnesses": 12, "radius": 10}}, '
        '{"system": {"moduli": [10], "coefficients": [[8, 9]]}, "ok": true, '
        '"detail": {"witnesses": 10, "radius": 10}}, '
        '{"system": {"moduli": [7], "coefficients": [[1, 4, 6]]}, "ok": true, '
        '"detail": {"witnesses": 7, "radius": 4}}, '
        '{"system": {"moduli": [10], "coefficients": [[1, 8, 3]]}, "ok": true, '
        '"detail": {"witnesses": 10, "radius": 6}}], "ok": true}\n'),
    "verify hrd --n 1..6 -f csv": (
        "n,sigma,count,excluded,max_dspan,violations\n"
        "1,1,1,1,,0\n"
        "2,3,3,3,,0\n"
        "3,4,4,3,1,0\n"
        "4,7,7,3,2,0\n"
        "5,6,6,3,2,0\n"
        "6,12,12,3,3,0\n"),
    "scan --primes 5..7 --m 2..3 -f pretty": (
        "p=5  m=2  family=sharp  coefficients=1 4  dspan=2  bfield=5  bfieldr=5  "
        "conjecture_bound=5  meets_bound=True  flag=\n"
        "p=5  m=3  family=sharp  coefficients=1 4 2  dspan=2  bfield=3  bfieldr=3  "
        "conjecture_bound=3  meets_bound=True  flag=\n"
        "p=7  m=2  family=sharp  coefficients=1 6  dspan=3  bfield=7  bfieldr=7  "
        "conjecture_bound=7  meets_bound=True  flag=\n"
        "p=7  m=3  family=sharp  coefficients=1 6 2  dspan=2  bfield=4  bfieldr=4  "
        "conjecture_bound=4  meets_bound=True  flag=\n"
        "4 rows\n"),
    "scan --primes 5..7 --m 2..3 --family random --samples 2 --seed 0 --cap 4 -f pretty": (
        "p=5  m=2  family=random  coefficients=2 3  dspan=None  bfield=None  bfieldr=None  "
        "conjecture_bound=5  meets_bound=None  flag=cap-exceeded:bfield\n"
        "p=5  m=2  family=random  coefficients=3 2  dspan=None  bfield=None  bfieldr=None  "
        "conjecture_bound=5  meets_bound=None  flag=cap-exceeded:bfield\n"
        "p=5  m=3  family=random  coefficients=3 4 1  dspan=2  bfield=3  bfieldr=3  "
        "conjecture_bound=3  meets_bound=True  flag=\n"
        "p=5  m=3  family=random  coefficients=3 2 1  dspan=2  bfield=3  bfieldr=3  "
        "conjecture_bound=3  meets_bound=True  flag=\n"
        "p=7  m=2  family=random  coefficients=3 5  dspan=None  bfield=None  bfieldr=None  "
        "conjecture_bound=7  meets_bound=None  flag=cap-exceeded:bfield\n"
        "p=7  m=2  family=random  coefficients=3 6  dspan=None  bfield=None  bfieldr=None  "
        "conjecture_bound=7  meets_bound=None  flag=cap-exceeded:bfield\n"
        "p=7  m=3  family=random  coefficients=3 4 6  dspan=2  bfield=4  bfieldr=4  "
        "conjecture_bound=4  meets_bound=True  flag=\n"
        "p=7  m=3  family=random  coefficients=5 4 6  dspan=2  bfield=4  bfieldr=3  "
        "conjecture_bound=4  meets_bound=True  flag=\n"
        "8 rows\n"),
}


def key(argv):
    return " ".join(argv)


def run(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_recording_covers_every_command(golden):
    assert sorted(golden) == sorted(key(c + ["-f", f]) for c in COMMANDS for f in FORMATS)
    assert set(CHANGED) <= set(golden)


@pytest.mark.parametrize("argv", [c + ["-f", f] for c in COMMANDS for f in FORMATS], ids=key)
def test_output_matches_recording(argv, golden):
    expected = dict(golden[key(argv)])
    if key(argv) in CHANGED:
        assert CHANGED[key(argv)] != expected["stdout"]
        expected["stdout"] = CHANGED[key(argv)]
    code, text = run(argv)
    assert {"code": code, "stdout": text} == expected
