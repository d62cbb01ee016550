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
from invlat import cli, geomnum
from invlat.cli import build_parser, main, parse_construct, parse_range
from invlat.parallel import worker_count
from invlat.constructions import CounterexampleReport, SharpCaseSpec, counterexample_check
from invlat.degree_bounds import DegreeBoundReport

MOD4 = '{"moduli":[4],"coefficients":[[1,3]]}'
MOD5 = '{"moduli":[5],"coefficients":[[1,4]]}'
TWO_ROWS = '{"moduli":[4,6],"coefficients":[[1,3,0],[0,1,5]]}'
GCD_ROW = '{"moduli":[12],"coefficients":[[2,4,6]]}'

SCHEMA_DIR = Path(invlat.__file__).parent / "schemas"


def run(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


class TestParsing:
    def test_parse_range(self):
        assert parse_range("1..4", "--n") == [1, 2, 3, 4]
        assert parse_range("6,8,10", "--n") == [6, 8, 10]
        assert parse_range("7", "--n") == [7]
        assert parse_range("1..3,9", "--n") == [1, 2, 3, 9]

    def test_parse_range_errors(self):
        for bad, message in (("3..1", "--m has an empty range 3..1"),
                             ("", "--m expects integers, got ''"),
                             ("x", "--m expects integers, got 'x'"),
                             ("1..y", "--m expects integers, got 'y'"),
                             ("2, 3.5", "--m expects integers, got '3.5'")):
            with pytest.raises(ValueError) as exc:
                parse_range(bad, "--m")
            assert str(exc.value) == message

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
        # one residue, comma-joined residues, and residues sharing a factor with n
        for system in (MOD4, TWO_ROWS, GCD_ROW):
            _, text = run(["bounds", "--congruence", system, "--format", "json"])
            payload = json.loads(text)
            jsonschema.validate(payload, load_schema("bounds_report.schema.json"))
            jsonschema.validate(payload["input"],
                                load_schema("congruence_system.schema.json"))

    def test_schema_rejects_a_tuple_label(self):
        _, text = run(["bounds", "--congruence", MOD4, "--format", "json"])
        payload = json.loads(text)
        schema = load_schema("bounds_report.schema.json")
        payload["bounds"]["dspan"]["witnesses"]["(0,)"] = [0, 0]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)

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

    def test_repeated_bound_rejected(self, capsys):
        # json would keep one key where csv and pretty printed two rows
        for which in ("dspan,dspan", "bfield,dspan,bfield"):
            for fmt in ("json", "csv", "pretty"):
                argv = ["bounds", "--construct", "sharp:p=5,m=2", "--which", which,
                        "--format", fmt]
                assert run(argv) == (2, ""), argv
                name = which.split(",")[0]
                assert capsys.readouterr().err == f"error: repeated bound '{name}'\n"

    def test_pretty(self):
        code, text = run(["bounds", "--congruence", MOD4])
        assert code == 0
        assert "index 4, dimension 2" in text
        assert "dspan = 2  [cap 3]" in text
        assert "label 0: (0,0)" in text

    def test_only_json_converts_witnesses(self, monkeypatch):
        # csv and pretty print no converted witness: on a large index the
        # conversion of one witness per coset costs as much as dspan itself
        calls = []
        to_jsonable = DegreeBoundReport.to_jsonable

        def counting(rep):
            calls.append(rep.which)
            return to_jsonable(rep)

        monkeypatch.setattr(DegreeBoundReport, "to_jsonable", counting)
        texts = {}
        for fmt, converted in (("csv", []), ("pretty", []),
                               ("json", ["dspan", "bfield", "bfieldr"])):
            calls.clear()
            code, texts[fmt] = run(["bounds", "--congruence", TWO_ROWS, "-f", fmt])
            assert code == 0 and calls == converted, fmt
        # pretty reads the reports directly, in the json's label order
        dspan_wit = json.loads(texts["json"])["bounds"]["dspan"]["witnesses"]
        assert [line for line in texts["pretty"].splitlines() if "label" in line] == \
            [f"  label {k}: {cli.vec_str(v)}" for k, v in dspan_wit.items()]

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

    def test_deeply_nested_json_rejected(self, capsys):
        # the decoder runs out of recursion depth; that is bad input, exit 2
        depth = 100_000
        nested = '{"moduli": ' + "[" * depth + "]" * depth + ', "coefficients": [[1]]}'
        assert run(["bounds", "--congruence", nested]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: not valid JSON: maximum recursion depth exceeded")

    def test_cap_exceeded(self, capsys):
        code, _ = run(["bounds", "--congruence", MOD5, "--cap", "1",
                       "--which", "bfield"])
        assert code == 3
        assert "cap exceeded while computing bfield" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "minima"])
    def test_negative_cap_rejected(self, capsys, command):
        argv = [command, "--construct", "sharp:p=5,m=2", "--cap", "-1"]
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == "error: --cap must be at least 0, got -1\n"

    def test_zero_cap_is_a_real_cap(self, capsys):
        # dspan of an index-1 lattice is 0, so 0 is a cap and not bad input
        argv = ["bounds", "--construct", "sharp:p=5,m=2", "--cap", "0"]
        assert run(argv) == (3, "")
        assert capsys.readouterr().err == "cap exceeded while computing dspan (cap 0)\n"
        assert run(["bounds", "--congruence", '{"moduli":[2],"coefficients":[[0,0]]}',
                    "--which", "dspan", "--cap", "0", "-f", "csv"]) == \
            (0, "which,value,index,search_cap\ndspan,0,1,0\n")

    def test_cap_at_the_skip_radius(self, capsys):
        # sharp (101, 4): bfield = bfieldr = lambda_4 = 51, and every search
        # jumps from shell 3 straight to 51, so cap 50 still runs out and
        # cap 51 prints the answer
        sharp = ["--construct", "sharp:p=101,m=4"]
        for argv, which in ((["minima"], "successive_minima"),
                            (["bounds", "--which", "bfield,bfieldr"], "bfield")):
            assert run(argv + sharp + ["--cap", "50"]) == (3, "")
            assert capsys.readouterr().err == f"cap exceeded while computing {which} (cap 50)\n"
        assert run(["minima", *sharp, "--cap", "51"]) == (0, (
            "index 101, dimension 4\n"
            "lambda_1 = 2  witness (-1,-1,0,0)\n"
            "lambda_2 = 2  witness (0,0,-1,-1)\n"
            "lambda_3 = 3  witness (-2,0,0,-1)\n"
            "lambda_4 = 51  witness (-1,0,-50,0)\n"
            "minkowski: product 612 <= 2424 ok\n"))
        assert run(["bounds", "--which", "bfield,bfieldr", *sharp, "--cap", "51"]) == (0, (
            "index 101, dimension 4, moduli [101]\n"
            "bfield = 51  [cap 51]\n"
            "  witnesses: (0,0,1,1) (1,1,0,0) (0,2,1,0) (0,1,0,50)\n"
            "bfieldr = 51  [cap 51]\n"
            "  witnesses: (-1,-1,0,0) (0,0,-1,-1) (-2,0,0,-1) (-1,0,-50,0)\n"))
        assert capsys.readouterr().err == ""

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        # A failed internal invariant exits 4, apart from 1 (violations found)
        # and 2 (bad input). A determinant form that is zero everywhere makes
        # the basis check raise its "construction bug" InternalError.
        monkeypatch.setattr(geomnum.DeterminantForm, "apply", lambda self, w: 0)
        code, out = run(["basis", "--construct", "sharp:p=5,m=3", "--format", "json"])
        assert code == 4 and out == ""
        assert capsys.readouterr().err == (
            "internal error: refined vectors do not form a basis; construction bug\n")

    def test_other_runtime_errors_are_not_internal(self, monkeypatch):
        # A RuntimeError from the environment (a broken worker pool, a
        # recursion limit) is not reported as a bug in invlat.
        def broken(*args, **kwargs):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(geomnum.DeterminantForm, "apply", broken)
        with pytest.raises(BrokenProcessPool):
            run(["basis", "--construct", "sharp:p=5,m=3", "--format", "json"])

    def test_internal_key_error_is_not_bad_input(self, monkeypatch):
        # every input lookup checks its key first, so a KeyError is a bug
        # that propagates, not an "error:" line and exit 2
        def broken(*args, **kwargs):
            raise KeyError("missing")

        monkeypatch.setattr(geomnum.DeterminantForm, "apply", broken)
        with pytest.raises(KeyError):
            run(["basis", "--construct", "sharp:p=5,m=3", "--format", "json"])

    def test_failed_refinement_invariant_exits_4(self, capsys, monkeypatch):
        # a minima witness repeated into the refinement is a bug in invlat,
        # reported as such and not as a traceback or as bad input
        real = geomnum._generation_search

        def first_twice(*args):
            walk = real(*args)
            first = next(walk)
            yield first
            yield first
            yield from walk

        monkeypatch.setattr(geomnum, "_generation_search", first_twice)
        code, out = run(["basis", "--construct", "sharp:p=7,m=3", "--format", "json"])
        assert code == 4 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "Traceback" not in err


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

    def test_sharp_skips_p_two(self):
        # the sharp family needs an odd prime; p = 2 is skipped like a composite
        code, text = run(["verify", "sharp", "--primes", "2..5", "--m", "1",
                          "--format", "json"])
        assert code == 0
        assert text == run(["verify", "sharp", "--primes", "3..5", "--m", "1",
                            "--format", "json"])[1]
        assert [c["p"] for c in json.loads(text)["cases"]] == [3, 3, 5, 5]

    @pytest.mark.parametrize("argv, message", [
        (["verify", "sharp", "--primes", "5", "--m", "-1"], "--m must be at least 1, got -1"),
        (["verify", "sharp", "--primes", "5", "--m", "0..2"], "--m must be at least 1, got 0"),
        (["verify", "sharp", "--primes", "4", "--m", "2"], "--primes has no odd prime in 4"),
        (["verify", "sharp", "--primes", "2,8..10", "--m", "1"],
         "--primes has no odd prime in 2,8..10"),
        (["scan", "--primes", "5", "--m", "-1"], "--m must be at least 1, got -1"),
        (["verify", "sharp", "--primes", "5", "--m", "5..7"],
         "--m has no value below a prime of --primes 5, got 5..7"),
        (["scan", "--primes", "5", "--m", "7"],
         "--m has no value below a prime of --primes 5, got 7"),
        (["scan", "--family", "random", "--primes", "3,5", "--m", "5,8"],
         "--m has no value below a prime of --primes 3,5, got 5,8"),
        (["scan", "--family", "sharp", "--primes", "2", "--m", "1"],
         "--primes has no odd prime in 2"),
    ])
    def test_sharp_with_nothing_to_check_exits_2(self, capsys, argv, message):
        # verify sharp and scan once printed an empty result and exited 0
        # for these
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sampled_m_out_of_range_named(self, capsys):
        for m, nmax, message in (("6", "4", "--m must be below --nmax 4, got 6"),
                                 ("0..2", "4", "--m must be at least 1, got 0"),
                                 ("2..12", "12", "--m must be below --nmax 12, got 12")):
            argv = ["verify", "relations", "--random", "2", "--m", m, "--nmax", nmax]
            assert run(argv) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "relations", "--m", "0"], "--m must be at least 1, got 0"),
        (["verify", "minkowski", "--m", "2..40", "--nmax", "30"],
         "--m must be below --nmax 30, got 40"),
        (["verify", "bite", "--m", "-3"], "--m must be at least 1, got -3"),
    ])
    def test_sampled_m_names_its_flags(self, capsys, argv, message):
        # these once failed with "need 1 <= m < n_max", naming no flag
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--random", "-2", "--random must be at least 0, got -2"),
        ("--nmax", "3", "--nmax must be at least 4, got 3"),
    ])
    def test_sampled_counts_name_their_flag(self, capsys, flag, value, message):
        for suite in ("relations", "minkowski"):
            assert run(["verify", suite, "--m", "2", flag, value]) == (2, "")
            assert capsys.readouterr().err == f"error: {message}\n"

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

    @pytest.mark.parametrize("argv, worker, items", [
        (["verify", "sharp", "--primes", "4..7", "--m", "2..3"], lambda: cli._sharp_case,
         [SharpCaseSpec(p, m, miss) for p in (5, 7)
          for m, misses in ((2, [None]), (3, [1, -1, 2, -2])) for miss in misses]),
        (["verify", "counterexample", "--n", "6,8"], lambda: counterexample_check, [6, 8]),
    ], ids=["sharp", "counterexample"])
    def test_jobs_fan_out_keeps_the_output(self, monkeypatch, argv, worker, items):
        # the cases go through parallel_map in order, and --jobs 2 prints
        # what --jobs 1 prints, byte for byte
        calls = []
        real = cli.parallel_map

        def recording(fn, cases, jobs=1):
            calls.append((fn, list(cases), jobs))
            return real(fn, cases, jobs)

        monkeypatch.setattr(cli, "parallel_map", recording)
        one, two = (run(argv + ["-f", "json", "--jobs", j]) for j in ("1", "2"))
        assert one[0] == 0 and two == one
        assert calls == [(worker(), items, 1), (worker(), items, 2)]

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

    def test_zero_cap_flags_rows(self):
        assert run(["scan", "--primes", "5", "--m", "2", "--cap", "0", "-f", "csv"]) == (0, (
            "p,m,family,coefficients,dspan,bfield,bfieldr,conjecture_bound,"
            "meets_bound,flag\n"
            "5,2,sharp,1 4,,,,5,,cap-exceeded:dspan\n"))

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

    def test_sharp_skips_p_two(self):
        code, text = run(["scan", "--primes", "2..7", "--m", "1", "--format", "json"])
        assert code == 0
        assert [r["p"] for r in json.loads(text)["rows"]] == [3, 5, 7]
        # the random family is defined for every prime, 2 included
        code, text = run(["scan", "--primes", "2..3", "--m", "1", "--family", "random",
                          "--samples", "1", "--format", "json"])
        assert code == 0
        assert [r["p"] for r in json.loads(text)["rows"]] == [2, 3]

    def test_no_primes_in_range(self, capsys):
        # the error names the flag; the sharp family, the default, needs an
        # odd prime, and the random family takes 2 as well
        for family, kind in (("sharp", "odd prime"), ("random", "prime")):
            assert run(["scan", "--family", family, "--primes", "4", "--m", "2"]) == (2, "")
            assert capsys.readouterr().err == f"error: --primes has no {kind} in 4\n"
        assert run(["scan", "--primes", "4", "--m", "2"]) == (2, "")
        assert capsys.readouterr().err == "error: --primes has no odd prime in 4\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "-1", "--samples must be at least 0, got -1"),
        ("--m", "0", "--m must be at least 1, got 0"),
        ("--m", "0..3", "--m must be at least 1, got 0"),
        ("--cap", "-3", "--cap must be at least 0, got -3"),
    ])
    def test_bad_counts_name_their_flag(self, capsys, flag, value, message):
        args = {"--primes": "5", "--m": "2", "--family": "random", flag: value}
        code, out = run(["scan"] + [t for kv in args.items() for t in kv])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_family_choices_are_the_table(self):
        scan = next(a for a in build_parser()._actions if a.dest == "command").choices["scan"]
        family = next(a for a in scan._actions if a.dest == "family")
        assert tuple(family.choices) == tuple(cli.SCAN_FAMILIES) == ("sharp", "random")

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

    def test_repeated_parameter_rejected(self, capsys):
        # a repeated key used to keep its last value silently
        for argv in (["construct", "sharp:p=5,m=2,p=7"],
                     ["construct", "sharp:p=5,m=2,p=7", "--format", "json"],
                     ["bounds", "--construct", "sharp:p=5,m=2,p=7"],
                     ["bounds", "--construct", "sharp:p=5, m=2,p=5", "--format", "csv"]):
            assert run(argv) == (2, ""), argv
            assert capsys.readouterr().err == "error: repeated sharp parameter p\n"

    def test_non_integer_parameter_names_it(self, capsys):
        # int() used to report only "invalid literal for int() with base 10"
        cases = [(["construct", "sharp:p=x,m=2"], "sharp parameter p expects an integer, got 'x'"),
                 (["construct", "sharp:p=5,m= 2.0"],
                  "sharp parameter m expects an integer, got '2.0'"),
                 (["bounds", "--construct", "counterexample:n=", "--format", "csv"],
                  "counterexample parameter n expects an integer, got ''"),
                 (["basis", "--construct", "sharp:p=5,m=2,missing=one"],
                  "sharp parameter missing expects an integer, got 'one'")]
        for argv, message in cases:
            assert run(argv) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_range_flag_names_itself(self, capsys):
        cases = [(["scan", "--primes", "x", "--m", "3"], "--primes expects integers, got 'x'"),
                 (["scan", "--primes", "5", "--m", "2..z"], "--m expects integers, got 'z'"),
                 (["verify", "relations", "--random", "2", "--m", "x"],
                  "--m expects integers, got 'x'"),
                 (["verify", "minkowski", "--random", "2", "--m", "4..2"],
                  "--m has an empty range 4..2"),
                 (["verify", "sharp", "--primes", "5,q", "--m", "2"],
                  "--primes expects integers, got 'q'"),
                 # --m is read even when --primes holds no odd prime
                 (["verify", "sharp", "--primes", "4", "--m", "x"],
                  "--m expects integers, got 'x'"),
                 (["verify", "hrd", "--n", "x"], "--n expects integers, got 'x'"),
                 (["verify", "counterexample", "--n", "6..", "--format", "json"],
                  "--n expects integers, got ''")]
        for argv, message in cases:
            assert run(argv) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_n_checked_before_any_work(self, monkeypatch, capsys):
        # the whole --n list is checked up front: --n 300,0 used to run
        # n = 300 before failing with "index must be positive", and an odd
        # n failed inside the check without naming --n
        calls = []
        monkeypatch.setattr(cli.rank2, "hrd_verify", lambda n, jobs=1: calls.append(n))
        monkeypatch.setattr(cli.constructions, "counterexample_check",
                            lambda n: calls.append(n))
        cases = [(["verify", "hrd", "--n", "300,0"], "--n must be at least 1, got 0"),
                 (["verify", "hrd", "--n=-2..3", "-f", "json"],
                  "--n must be at least 1, got -2"),
                 (["verify", "counterexample", "--n", "7"], "--n must be even, got 7"),
                 (["verify", "counterexample", "--n", "6,8,9,11", "-f", "csv"],
                  "--n must be even, got 9"),
                 (["verify", "counterexample", "--n", "8,4"], "--n must be at least 6, got 4")]
        for argv, message in cases:
            assert run(argv) == (2, ""), argv
            assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []

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

    def test_bad_worker_count_names_its_source(self, monkeypatch, capsys):
        assert run(["verify", "hrd", "--n", "1..4", "--jobs", "0"]) == (2, "")
        assert capsys.readouterr().err == "error: --jobs must be at least 1, got 0\n"
        assert run(["scan", "--primes", "5", "--m", "2", "-j", "-3"]) == (2, "")
        assert capsys.readouterr().err == "error: --jobs must be at least 1, got -3\n"
        monkeypatch.setenv("INVLAT_THREADS", "0")
        assert run(["verify", "counterexample", "--n", "6"]) == (2, "")
        assert capsys.readouterr().err == "error: INVLAT_THREADS must be at least 1, got 0\n"
        # the flag still wins over the environment
        assert run(["verify", "counterexample", "--n", "6", "--jobs", "1"])[0] == 0

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
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run(argv)[1]

    def test_worker_count_clamp(self):
        assert worker_count(2, 40, 2) == 2
        assert worker_count(64, 40, 2) == 2
        assert worker_count(64, 3, 8) == 3
        assert worker_count(4, 0, 8) == 1
        assert worker_count(1, 40, 8) == 1


class TestParserReuse:
    """main builds its argparse tree once per process and reuses it."""

    def test_options_do_not_leak_into_later_calls(self):
        # non-default options first, then the same commands on their
        # defaults; those must print what a fresh process prints
        lattice = ["--construct", "sharp:p=5,m=3"]
        assert run(["bounds", *lattice, "--which", "dspan", "--cap", "5", "-f", "csv"])[0] == 0
        assert run(["verify", "hrd", "--n", "1..6", "--jobs", "2", "-f", "json"])[0] == 0
        for argv in (["bounds", *lattice], ["verify", "counterexample"]):
            proc = launch("-m", "invlat", *argv)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            assert run(argv) == (0, proc.stdout)

    def test_parser_built_once(self):
        build_parser()
        before = build_parser.cache_info()
        for argv in (["construct", "dihedral:n=3"], ["bounds", "--congruence", MOD4],
                     ["minima", "--congruence", MOD5, "-f", "csv"]):
            assert run(argv)[0] == 0
        after = build_parser.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 3

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_reads_the_width_when_printed(self, capsys, monkeypatch, argv):
        # the shared parser prints what a freshly built one prints, at
        # every terminal width
        def help_text(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        texts = []
        for columns in ("50", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            fresh = help_text(build_parser.__wrapped__().parse_args)
            assert help_text(main) == help_text(main) == fresh
            proc = launch("-m", "invlat", *argv)
            assert (proc.returncode, proc.stdout) == (0, fresh)
            texts.append(fresh)
        assert texts[0] != texts[1]


class TestPoolImport:
    """`multiprocessing` and `pickle`, which only the fan-out uses, are loaded at
    the first fan-out only."""

    def test_no_pool_module_without_fan_out(self):
        script = ("import sys; from invlat.cli import main; rc = main(['construct', "
                  "'dihedral:n=3']); print(sorted(m for m in ('multiprocessing', "
                  "'pickle') if m in sys.modules)); sys.exit(rc)")
        proc = launch("-c", script)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "n: 3\ndspan: 3\n[]\n"

    def test_jobs_two_matches_jobs_one(self):
        argv = ["-m", "invlat", "verify", "sharp", "--primes", "5..7", "-f", "json"]
        one, two = launch(*argv, "--jobs", "1"), launch(*argv, "--jobs", "2")
        assert (one.returncode, one.stderr) == (0, "")
        assert (two.returncode, two.stderr) == (0, "")
        assert two.stdout == one.stdout


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
