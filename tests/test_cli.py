"""End-to-end CLI behavior: output contracts, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import jsonschema
import pytest

import invlat
from invlat import geomnum
from invlat.cli import main, parse_construct, parse_range
from invlat.parallel import worker_count
from invlat.constructions import CounterexampleReport

MOD4 = '{"moduli":[4],"coefficients":[[1,3]]}'
MOD5 = '{"moduli":[5],"coefficients":[[1,4]]}'

SCHEMA_DIR = Path(invlat.__file__).parent / "schemas"


def run(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


class TestParsing:
    def test_parse_range(self):
        assert parse_range("1..4") == [1, 2, 3, 4]
        assert parse_range("6,8,10") == [6, 8, 10]
        assert parse_range("7") == [7]
        assert parse_range("1..3,9") == [1, 2, 3, 9]

    def test_parse_range_errors(self):
        for bad in ("3..1", "", "x"):
            with pytest.raises(ValueError):
                parse_range(bad)

    def test_parse_construct(self):
        assert parse_construct("sharp:p=5,m=2") == ("sharp", {"p": 5, "m": 2})
        assert parse_construct("dihedral:n=4") == ("dihedral", {"n": 4})
        assert parse_construct("sharp") == ("sharp", {})
        with pytest.raises(ValueError):
            parse_construct("sharp:p")


class TestBounds:
    def test_json_payload(self):
        code, text = run(["bounds", "--congruence", MOD4, "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["index"] == 4
        ds = payload["bounds"]["dspan"]
        assert ds["value"] == 2 and ds["search_cap"] == 3
        # witnesses keyed by congruence label, one coset each
        assert ds["witnesses"] == {"0": [0, 0], "1": [1, 0],
                                   "2": [0, 2], "3": [0, 1]}
        assert payload["bounds"]["bfield"]["value"] == 4
        assert payload["bounds"]["bfieldr"]["value"] == 4

    def test_json_matches_schema(self):
        _, text = run(["bounds", "--congruence", MOD4, "--format", "json"])
        payload = json.loads(text)
        jsonschema.validate(payload, load_schema("bounds_report.schema.json"))
        jsonschema.validate(payload["input"],
                            load_schema("congruence_system.schema.json"))

    def test_schema_rejects_negative_coefficient(self):
        schema = load_schema("congruence_system.schema.json")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"moduli": [4], "coefficients": [[-1, 3]]}, schema)

    def test_csv(self):
        code, text = run(["bounds", "--congruence", MOD4, "--format", "csv"])
        assert code == 0
        assert text == ("which,value,index,search_cap\n"
                        "dspan,2,4,3\n"
                        "bfield,4,4,4\n"
                        "bfieldr,4,4,4\n")

    def test_which_subset(self):
        code, text = run(["bounds", "--congruence", MOD4,
                          "--which", "dspan,bfieldr", "--format", "csv"])
        assert code == 0
        assert [line.split(",")[0] for line in text.splitlines()[1:]] == \
            ["dspan", "bfieldr"]

    def test_pretty(self):
        code, text = run(["bounds", "--congruence", MOD4])
        assert code == 0
        assert "index 4, dimension 2" in text
        assert "dspan = 2  [cap 3]" in text
        assert "label 0: (0,0)" in text

    def test_input_file_equivalent(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(MOD4)
        _, from_flag = run(["bounds", "--congruence", MOD4, "--format", "json"])
        _, from_file = run(["bounds", "--input", str(path), "--format", "json"])
        assert from_flag == from_file

    def test_invalid_inputs(self, capsys):
        assert run(["bounds", "--congruence", "{not json"])[0] == 2
        assert run(["bounds", "--congruence", MOD4, "--which", "bogus"])[0] == 2
        assert run(["bounds", "--congruence", MOD4, "--construct",
                    "sharp:p=5,m=2"])[0] == 2
        assert run(["bounds"])[0] == 2
        assert run(["bounds", "--input", "/nonexistent/file.json"])[0] == 2
        assert "error:" in capsys.readouterr().err

    def test_json_booleans_rejected(self, capsys):
        for bad in ('{"moduli":[5],"coefficients":[[true,4]]}',
                    '{"moduli":[5],"coefficients":[[1,false]]}',
                    '{"moduli":[true],"coefficients":[[0]]}'):
            assert run(["bounds", "--congruence", bad])[0] == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    def test_cap_exceeded(self, capsys):
        code, _ = run(["bounds", "--congruence", MOD5, "--cap", "1",
                       "--which", "bfield"])
        assert code == 3
        assert "cap exceeded while computing bfield" in capsys.readouterr().err

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        # A failed internal invariant exits 4, apart from 1 (violations found)
        # and 2 (bad input). A wrong determinant makes mahler_basis's basis
        # check raise its "construction bug" InternalError.
        monkeypatch.setattr(geomnum, "det_int", lambda rows: 0)
        code, out = run(["basis", "--construct", "sharp:p=5,m=3", "--format", "json"])
        assert code == 4 and out == ""
        assert capsys.readouterr().err == (
            "internal error: refined vectors do not form a basis; construction bug\n")

    def test_other_runtime_errors_are_not_internal(self, monkeypatch):
        # A RuntimeError from the environment (a broken worker pool, a
        # recursion limit) is not reported as a bug in invlat.
        def broken(*args, **kwargs):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(geomnum, "det_int", broken)
        with pytest.raises(BrokenProcessPool):
            run(["basis", "--construct", "sharp:p=5,m=3", "--format", "json"])


class TestMinima:
    def test_json(self):
        code, text = run(["minima", "--congruence", MOD5, "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["minima"] == [2, 5]
        assert payload["witnesses"] == [[-1, -1], [-5, 0]]
        assert payload["minkowski"] == {"product": 10, "bound": 10, "ok": True}

    def test_csv(self):
        _, text = run(["minima", "--congruence", MOD5, "--format", "csv"])
        assert text == ("i,lambda,witness,product,bound,minkowski_ok\n"
                        "1,2,-1 -1,10,10,True\n"
                        "2,5,-5 0,10,10,True\n")


    def test_minima_computed_once(self, monkeypatch):
        calls = []
        real = geomnum.successive_minima

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(geomnum, "successive_minima", counting)
        for fmt in ("json", "csv", "pretty"):
            calls.clear()
            assert run(["minima", "--congruence", MOD5, "--format", fmt])[0] == 0
            assert len(calls) == 1


class TestBasis:
    def test_json_with_lift(self):
        code, text = run(["basis", "--construct", "sharp:p=5,m=2",
                          "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["vectors"] == [[1, 1], [-5, 0]]
        assert payload["norms"] == [2, 5]
        assert payload["max_norm"] == 5 == payload["bound"]
        assert payload["within_bound"] is True
        assert payload["completion"] == {
            "bstar": [-5, 0], "dstar": -1, "form": [-1, 1],
            "dstar_at_least_index": False}
        assert payload["lift"] == {
            "pairs": [[0, 1]], "vectors": [[1, 1], [0, 5], [1, 1]],
            "max_norm": 5}

    def test_lift_requires_inverse_closed(self):
        # 2 has no additive-inverse partner mod 5
        code, text = run(["basis", "--construct", "sharp:p=5,m=3"])
        assert code == 0
        assert "lift: coefficients are not inverse-closed" in text

    def test_csv(self):
        _, text = run(["basis", "--construct", "sharp:p=5,m=2", "--format", "csv"])
        lines = text.splitlines()
        assert lines[0] == "kind,i,vector,norm"
        assert lines[1] == "gen_deg,1,1 1,2"
        assert any(line.startswith("lifted,") for line in lines)


class TestVerify:
    def test_counterexample_default_range(self):
        code, text = run(["verify", "counterexample", "--format", "csv"])
        assert code == 0
        assert text == ("n,bfieldr,half,bound,ok\n"
                        "6,3,3,2,True\n"
                        "8,4,4,3,True\n"
                        "10,5,5,4,True\n"
                        "12,6,6,4,True\n")

    def test_hrd_range(self):
        code, text = run(["verify", "hrd", "--n", "1..8", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["ok"] is True
        assert [g["n"] for g in payload["groups"]] == list(range(1, 9))

    def test_sharp_single_cell(self):
        code, text = run(["verify", "sharp", "--primes", "5", "--m", "2",
                          "--format", "json"])
        assert code == 0
        assert text == ('{"suite": "sharp", "cases": [{"p": 5, "m": 2, '
                        '"missing": null, "bfield": 5, "bfieldr": 5, '
                        '"bound": 5, "ok": true}], "ok": true}\n')

    def test_sharp_odd_m_sweeps_missing(self):
        _, text = run(["verify", "sharp", "--primes", "5", "--m", "3",
                       "--format", "json"])
        cases = json.loads(text)["cases"]
        assert [c["missing"] for c in cases] == [1, -1, 2, -2]
        assert all(c["ok"] for c in cases)

    def test_sampled_suites(self):
        for suite in ("relations", "minkowski"):
            code, text = run(["verify", suite, "--random", "10", "--seed", "3",
                              "--nmax", "20", "--format", "csv"])
            assert code == 0
            assert len(text.splitlines()) == 11

    def test_blob_and_bite(self):
        for suite in ("blob", "bite"):
            code, text = run(["verify", suite, "--random", "5", "--seed", "1",
                              "--m", "2", "--nmax", "12", "--format", "json"])
            assert code == 0
            assert json.loads(text)["ok"] is True

    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        def broken(n):
            return CounterexampleReport(n, 0, n // 2, -(-n // 3), False,
                                        (2, -2, 0, 2, -2), False)
        monkeypatch.setattr("invlat.constructions.counterexample_check", broken)
        code, text = run(["verify", "counterexample", "--n", "6",
                          "--format", "json"])
        assert code == 1
        assert json.loads(text)["ok"] is False
        assert "violation: n=6" in capsys.readouterr().err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "nonsense"])
        assert exc.value.code == 2


class TestScan:
    def test_sharp_table(self):
        code, text = run(["scan", "--primes", "5..7", "--m", "2..3",
                          "--format", "csv"])
        assert code == 0
        assert text == (
            "p,m,family,coefficients,dspan,bfield,bfieldr,conjecture_bound,"
            "meets_bound,flag\n"
            "5,2,sharp,1 4,2,5,5,5,True,\n"
            "5,3,sharp,1 4 2,2,3,3,3,True,\n"
            "7,2,sharp,1 6,3,7,7,7,True,\n"
            "7,3,sharp,1 6 2,2,4,4,4,True,\n")

    def test_cap_flags_rows(self):
        code, text = run(["scan", "--primes", "5", "--m", "2", "--family",
                          "random", "--samples", "3", "--seed", "1",
                          "--cap", "2", "--format", "json"])
        assert code == 0
        rows = json.loads(text)["rows"]
        assert len(rows) == 3
        for r in rows:
            assert r["flag"] == "cap-exceeded:bfield"
            assert r["dspan"] is None and r["meets_bound"] is None

    def test_random_skips_m_not_below_p(self):
        # m >= p has no m distinct nonzero residues; those cells are skipped
        args = ["scan", "--primes", "5..7", "--family", "random",
                "--samples", "2", "--format", "json"]
        code, text = run(args + ["--m", "2..6"])
        assert code == 0
        rows = json.loads(text)["rows"]
        assert sorted({(r["p"], r["m"]) for r in rows}) == \
            [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6)]
        code, text = run(args + ["--m", "2..4"])
        assert code == 0
        assert [r for r in rows if r["m"] <= 4] == json.loads(text)["rows"]

    def test_no_primes_in_range(self):
        assert run(["scan", "--primes", "4", "--m", "2"])[0] == 2

    def test_jobs_invariance(self):
        args = ["scan", "--primes", "5..11", "--m", "2..3", "--format", "json"]
        assert run(args + ["--jobs", "1"])[1] == run(args + ["--jobs", "2"])[1]


class TestConstruct:
    def test_json_payloads(self):
        assert run(["construct", "sharp:p=5,m=2", "--format", "json"])[1] == \
            '{"moduli": [5], "coefficients": [[1, 4]], "index": 5}\n'
        assert run(["construct", "dihedral:n=4", "--format", "json"])[1] == \
            '{"n": 4, "dspan": 4}\n'
        assert run(["construct", "dicyclic:n=3", "--format", "json"])[1] == \
            '{"n": 3, "dspan": 4, "witness_ok": true}\n'

    def test_csv_flattens_rows(self):
        _, text = run(["construct", "counterexample:n=6", "--format", "csv"])
        assert text == ("key,value\n"
                        "moduli,6\n"
                        "coefficients,1 2 3 4 5\n"
                        "index,6\n")

    def test_pretty(self):
        code, text = run(["construct", "dihedral:n=5"])
        assert code == 0 and "dspan: 5" in text

    def test_errors(self):
        assert run(["construct", "frieze:n=3"])[0] == 2
        assert run(["construct", "dihedral:n=2"])[0] == 2
        assert run(["construct", "sharp:p=5,m=2,extra=1"])[0] == 2

    def test_missing_parameter_named(self, capsys):
        cases = [(["construct", "sharp:m=2"], "sharp needs parameter p"),
                 (["construct", "sharp:p=5"], "sharp needs parameter m"),
                 (["construct", "counterexample"], "counterexample needs parameter n"),
                 (["construct", "dihedral"], "dihedral needs parameter n"),
                 (["construct", "dicyclic:x=1"], "dicyclic needs parameter n"),
                 (["bounds", "--construct", "sharp:m=2"], "sharp needs parameter p"),
                 (["minima", "--construct", "counterexample"],
                  "counterexample needs parameter n")]
        for argv, message in cases:
            assert run(argv) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_parameter_rejected(self, capsys):
        cases = [(["construct", "sharp:p=5,m=2,x=1"], "unknown sharp parameters ['x']"),
                 (["construct", "counterexample:n=6,k=1"],
                  "unknown counterexample parameters ['k']"),
                 (["construct", "dihedral:n=4,x=1"], "unknown dihedral parameters ['x']"),
                 (["construct", "dicyclic:n=3,foo=2"], "unknown dicyclic parameters ['foo']"),
                 (["basis", "--construct", "sharp:p=5,m=2,x=1"],
                  "unknown sharp parameters ['x']"),
                 (["bounds", "--construct", "counterexample:n=6,k=1"],
                  "unknown counterexample parameters ['k']")]
        for argv, message in cases:
            assert run(argv) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_construct_flag_needs_a_lattice(self, capsys):
        assert run(["bounds", "--construct", "dihedral:n=4"]) == (2, "")
        assert capsys.readouterr().err == \
            "error: construction 'dihedral' does not define a lattice\n"


class TestParallelism:
    def test_verify_hrd_jobs_invariance(self):
        args = ["verify", "hrd", "--n", "1..10", "--format", "json"]
        assert run(args)[1] == run(args + ["--jobs", "2"])[1]

    def test_env_threads_honored(self, monkeypatch):
        args = ["verify", "hrd", "--n", "1..8", "--format", "json"]
        baseline = run(args)[1]
        monkeypatch.setenv("INVLAT_THREADS", "2")
        assert run(args)[1] == baseline

    def test_jobs_only_on_sweeps(self):
        assert run(["verify", "counterexample", "--n", "6", "--jobs", "2"])[0] == 0
        assert run(["scan", "--primes", "5", "--m", "2", "-j", "2"])[0] == 0
        for argv in (["bounds", "--congruence", MOD4], ["minima", "--congruence", MOD4],
                     ["basis", "--congruence", MOD4], ["construct", "dihedral:n=3"]):
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--jobs", "0"])
            assert exc.value.code == 2

    def test_bad_jobs(self):
        assert run(["verify", "hrd", "--n", "1..4", "--jobs", "0"])[0] == 2

    def test_bad_env_threads_named(self, monkeypatch, capsys):
        monkeypatch.setenv("INVLAT_THREADS", "abc")
        assert run(["verify", "hrd", "--n", "3"]) == (2, "")
        assert capsys.readouterr().err == \
            "error: INVLAT_THREADS must be an integer, got 'abc'\n"

    def test_no_worker_outlives_the_process(self):
        # subprocess.run reads stdout to its end, so a worker left holding
        # the pipe would run into launch's timeout
        argv = ["verify", "relations", "--random", "8", "--format", "json"]
        proc = launch("-m", "invlat", *argv, "--jobs", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run(argv)[1]

    def test_worker_count_clamp(self):
        assert worker_count(2, 40, 2) == 2
        assert worker_count(64, 40, 2) == 2
        assert worker_count(64, 3, 8) == 3
        assert worker_count(4, 0, 8) == 1
        assert worker_count(1, 40, 8) == 1


def launch(*args):
    """Run `python *args` with the source tree under test on PYTHONPATH."""
    src = str(Path(invlat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def declared_script(name):
    """The `module:function` that `[project.scripts]` declares for `name`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        import tomli as tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


class TestEntryPoint:
    def test_installed_script(self):
        # Run the declared console script the way an installer-generated
        # wrapper does, so the test needs no install and cannot pick up
        # some other `invlat` on PATH.
        module, func = declared_script("invlat").split(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        proc = launch("-c", script, "construct", "dihedral:n=3", "-f", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"n": 3, "dspan": 3}
        # main's return code must reach the exit status
        proc = launch("-c", script, "bounds", "--congruence", "{")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_module_entry_point(self):
        proc = launch("-m", "invlat", "construct", "dihedral:n=3", "-f", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"n": 3, "dspan": 3}
