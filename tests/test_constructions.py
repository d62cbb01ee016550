"""Named families: sharp case, composite counterexample, closed forms."""

import json
import tracemalloc

import pytest

from invlat import ball_enum, constructions
from invlat.constructions import (
    COUNTEREXAMPLE_D,
    COUNTEREXAMPLE_PROOF_VECTORS,
    SharpCaseSpec,
    codim1_check,
    codim1_generators,
    conjecture_bound,
    counterexample_check,
    counterexample_lattice,
    dicyclic_dspan,
    dicyclic_witness_check,
    dihedral_dspan,
    is_prime,
    sharp_case_lattice,
    sharp_missings,
)
from invlat.degree_bounds import bfield, bfieldr
from invlat.lattice_core import detect_trivial_or_duplicate, from_congruences

import oracles


class TestSharpSpec:
    def test_coefficient_sets(self):
        assert SharpCaseSpec(5, 2).signed_coefficients() == (1, -1)
        assert SharpCaseSpec(5, 4).signed_coefficients() == (1, -1, 2, -2)
        assert SharpCaseSpec(7, 3).signed_coefficients() == (1, -1, 2)
        assert SharpCaseSpec(7, 3, missing=1).signed_coefficients() == (-1, 2, -2)
        assert SharpCaseSpec(7, 3, missing=-1).signed_coefficients() == (1, 2, -2)
        assert SharpCaseSpec(7, 3, missing=2).signed_coefficients() == (1, -1, -2)

    def test_missing_normalization(self):
        assert SharpCaseSpec(7, 3).missing == -2
        assert SharpCaseSpec(13, 5).missing == -3
        assert SharpCaseSpec(5, 2).missing is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SharpCaseSpec(4, 2)  # composite
        with pytest.raises(ValueError):
            SharpCaseSpec(2, 1)  # even prime
        with pytest.raises(ValueError):
            SharpCaseSpec(5, 0)
        with pytest.raises(ValueError):
            SharpCaseSpec(5, 5)  # m must stay below p
        with pytest.raises(ValueError):
            SharpCaseSpec(5, 2, missing=-1)  # even m takes no missing
        with pytest.raises(ValueError):
            SharpCaseSpec(7, 3, missing=0)
        with pytest.raises(ValueError):
            SharpCaseSpec(7, 3, missing=3)  # outside +-1..+-2

    @pytest.mark.parametrize("m", range(1, 10))
    def test_sharp_missings_are_the_accepted_values(self, m):
        # the sweep takes exactly the missing values the spec accepts, in
        # the order +1, -1, +2, -2, ...; every other value near them raises
        k = -(-m // 2)
        accepted = []
        for miss in range(-k - 1, k + 2):
            try:
                accepted.append(SharpCaseSpec(11, m, miss).missing)
            except ValueError:
                pass
        if m % 2 == 0:
            assert accepted == [] and sharp_missings(m) == [None]
            assert SharpCaseSpec(11, m).missing is None
        else:
            assert sharp_missings(m) == [s * j for j in range(1, k + 1) for s in (1, -1)]
            assert sorted(accepted) == sorted(sharp_missings(m))
        assert [SharpCaseSpec(11, m, miss).missing for miss in sharp_missings(m)] == \
            sharp_missings(m)

    def test_lattice_rows(self):
        assert sharp_case_lattice(SharpCaseSpec(5, 2)).coefficients == ((1, 4),)
        assert sharp_case_lattice(SharpCaseSpec(7, 3)).coefficients == ((1, 6, 2),)
        s = sharp_case_lattice(SharpCaseSpec(7, 3, missing=1))
        assert s.moduli == (7,) and s.coefficients == ((6, 2, 5),)

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestConjectureBound:
    def test_values(self):
        cases = [(5, 1, 5), (5, 2, 5), (7, 3, 4), (5, 3, 3), (5, 4, 3),
                 (11, 4, 6), (13, 3, 7)]
        for p, m, expected in cases:
            assert conjecture_bound(p, m) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_bound(1, 2)
        with pytest.raises(ValueError):
            conjecture_bound(5, 0)


class TestSharpEquality:
    def test_frozen_values(self):
        for p, m, expected in ((5, 2, 5), (7, 2, 7), (5, 3, 3), (5, 4, 3), (7, 3, 4)):
            L = from_congruences(sharp_case_lattice(SharpCaseSpec(p, m)))
            assert conjecture_bound(p, m) == expected
            assert bfield(L).value == expected
            assert bfieldr(L).value == expected

    def test_all_missing_choices(self):
        # equality is independent of which coefficient is removed
        for miss in (1, -1, 2, -2):
            L = from_congruences(sharp_case_lattice(SharpCaseSpec(7, 3, missing=miss)))
            assert bfieldr(L).value == 4


class TestCodim1:
    def test_frozen_points(self):
        assert codim1_generators(SharpCaseSpec(7, 3)) == ((1, 1, 0), (0, 2, 1))
        assert codim1_generators(SharpCaseSpec(11, 4)) == (
            (1, 1, 0, 0), (0, 2, 1, 0), (0, 0, 1, 1))

    def test_check_sweep(self):
        for p in (5, 7, 11, 13):
            for m in range(2, min(7, p)):
                ok, details = codim1_check(SharpCaseSpec(p, m))
                assert ok, (p, m, details)
                assert details["rank"] == m - 1
                assert len(details["points"]) == m - 1

    def test_check_all_missing(self):
        for miss in (1, -1, 2, -2):
            ok, _ = codim1_check(SharpCaseSpec(7, 3, missing=miss))
            assert ok, miss

    @pytest.mark.parametrize("points", [
        ((1, 1, 0, 0),) * 3,                          # rank 1
        ((0, 0, 1, 1), (0, 2, 1, 0), (2, 0, 0, 1)),   # rank 3, index 2
    ])
    def test_check_rejects_points_that_do_not_generate(self, monkeypatch, points):
        # each point is nonnegative, of norm <= 3 and in the kernel of
        # (1, -1, 2, -2), so only the generation test can fail
        monkeypatch.setattr(constructions, "codim1_generators", lambda spec: points)
        ok, details = codim1_check(SharpCaseSpec(11, 4))
        assert not ok
        assert details == {"points": [list(p) for p in points]}

    def test_single_coordinate(self):
        # m = 1 leaves nothing to generate
        assert codim1_generators(SharpCaseSpec(5, 1)) == ()
        ok, details = codim1_check(SharpCaseSpec(5, 1))
        assert ok and details["rank"] == 0


class TestCounterexample:
    def test_rows(self):
        s = counterexample_lattice(10)
        assert s.moduli == (10,) and s.coefficients == ((1, 4, 5, 6, 9),)
        assert counterexample_lattice(6).coefficients == ((1, 2, 3, 4, 5),)

    def test_validation(self):
        for bad in (5, 7, 2, 0):
            with pytest.raises(ValueError):
                counterexample_lattice(bad)
        with pytest.raises(ValueError):
            counterexample_check(4)
        with pytest.raises(ValueError):
            counterexample_check(7)

    def test_n4_duplicates(self):
        rep = detect_trivial_or_duplicate(from_congruences(counterexample_lattice(4)))
        assert rep.trivial_indices == ()
        assert rep.duplicate_pairs == ((0, 1), (3, 4))

    def test_family_breaks_bound(self):
        for n in (6, 8, 10, 12):
            rep = counterexample_check(n)
            assert rep.ok
            assert rep.bfieldr == n // 2 == rep.half
            assert rep.half > rep.bound == -(-n // 3)
            assert rep.vectors_in_lattice and rep.d_matches
            assert rep.d_vector == COUNTEREXAMPLE_D

    def test_proof_vectors_shape(self):
        assert len(COUNTEREXAMPLE_PROOF_VECTORS) == 4
        assert all(len(v) == 5 and min(v) >= 0 for v in COUNTEREXAMPLE_PROOF_VECTORS)

    def test_json(self):
        payload = json.loads(counterexample_check(6).to_json())
        assert payload["ok"] is True
        assert payload["d_vector"] == [2, -2, 0, 2, -2]


class TestClosedForms:
    def test_dihedral(self):
        assert dihedral_dspan(3) == 3
        assert dihedral_dspan(8) == 8
        with pytest.raises(ValueError):
            dihedral_dspan(2)

    def test_dicyclic(self):
        assert dicyclic_dspan(2) == 3
        assert dicyclic_dspan(7) == 8
        with pytest.raises(ValueError):
            dicyclic_dspan(1)

    def test_dicyclic_witness(self):
        for n in (2, 3, 5, 7):
            assert dicyclic_witness_check(n)
        with pytest.raises(ValueError):
            dicyclic_witness_check(1)

    def test_dicyclic_label_points_against_walk(self):
        for n in range(2, 61):
            assert [constructions.dicyclic_label_points(n, d) for d in range(n + 3)] == \
                oracles.dicyclic_label_walk(n, n + 2), n
            assert dicyclic_witness_check(n), n

    def test_dicyclic_witness_walks_no_shell(self, monkeypatch):
        # work gate: the check solves each norm in closed form, so a large n
        # needs no shell of points
        def refuse(*args):
            raise AssertionError("shell_points called")

        monkeypatch.setattr(ball_enum, "shell_points", refuse)
        monkeypatch.setattr(constructions, "shell_points", refuse, raising=False)
        assert dicyclic_witness_check(10**5)

    def test_dicyclic_witness_keeps_no_norms(self):
        # memory gate: each norm's points are dropped once tested, so the
        # check does not grow with n; holding all n + 2 norms takes megabytes
        tracemalloc.start()
        try:
            assert dicyclic_witness_check(10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
