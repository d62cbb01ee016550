"""Staircase machinery on index-n sublattices of Z^2."""

import json
from types import SimpleNamespace

import pytest

from invlat import rank2
from invlat.degree_bounds import dspan
from invlat.lattice_core import CongruenceSystem, LatticeBasis, from_congruences, l1norm, weight
from invlat.rank2 import (
    StructureViolation,
    bite_check,
    blob_check,
    enumerate_sublattices,
    find_E,
    find_H,
    he_analysis,
    hrd_verify,
    sigma,
    staircase_dspan_bound,
)
from invlat.sampling import random_congruence_systems

import oracles


def kernel(n, coeffs):
    return from_congruences(CongruenceSystem((n,), (tuple(coeffs),)))


def swapped(L):
    return LatticeBasis.from_generators([(c[1], c[0]) for c in L.columns])


def scan_H(L):
    """Reference find_H: scan a2 = 1, 2, ... and, for each, a1 = 0, -1, ...
    down to the weight-positive edge, testing membership."""
    for a2 in range(1, L.index + 1):
        for a1 in range(0, -a2, -1):
            if (a1, a2) in L:
                return (a1, a2)
    raise AssertionError("scan passed the index bound without a hit")


def scan_E(L):
    """Reference find_E: the mirror scan into the fourth quadrant."""
    for a1 in range(1, L.index + 1):
        for a2 in range(0, -a1, -1):
            if (a1, a2) in L:
                return (a1, a2)
    raise AssertionError("scan passed the index bound without a hit")


def box_empty_triangle(L, H, E, allowed):
    """Reference triangle check: every point of the bounding box of the
    triangle (0, H, E), tested for membership."""
    for a1 in range(H[0], E[0] + 1):
        for a2 in range(E[1], H[1] + 1):
            p = (a1, a2)
            if p == (0, 0) or p in allowed:
                continue
            inside = (rank2._cross((0, 0), E, p) >= 0 and rank2._cross(E, H, p) >= 0
                      and rank2._cross(H, (0, 0), p) >= 0)
            if inside and p in L:
                raise StructureViolation(f"lattice point {p} inside triangle 0,{H},{E}")


def he_outcome(L):
    try:
        return he_analysis(L)
    except StructureViolation as exc:
        return str(exc)


class TestFindHE:
    def test_mod5_example(self):
        L = kernel(5, (1, 4))
        assert find_H(L) == (-2, 3)
        assert find_E(L) == (3, -2)

    def test_dimension_guard(self):
        L = kernel(5, (1, 2, 3))
        with pytest.raises(ValueError):
            find_H(L)
        with pytest.raises(ValueError):
            find_E(L)

    def test_extremality_brute(self):
        # H is the lattice point of least positive a2 in the scanned wedge,
        # with a1 pushed toward zero; E is its mirror under coordinate swap.
        for n in (5, 6, 7):
            for _, _, _, L in enumerate_sublattices(n):
                H = find_H(L)
                assert H in L and H[0] <= 0 < H[1] and weight(H) > 0
                for y in range(1, H[1]):
                    for x in range(0, -y, -1):
                        assert (x, y) not in L
                for x in range(0, H[0], -1):
                    assert (x, H[1]) not in L or (x, H[1]) == H
                E = find_E(L)
                mirrored = find_H(swapped(L))
                assert E == (mirrored[1], mirrored[0])

    def test_closed_forms_match_scans(self):
        # every index-n sublattice of Z^2 for n <= 60
        count = 0
        for n in range(1, 61):
            for a, b, d, L in enumerate_sublattices(n):
                assert find_H(L) == scan_H(L), (a, b, d)
                assert find_E(L) == scan_E(L), (a, b, d)
                count += 1
        assert count == sum(sigma(n) for n in range(1, 61))


class TestEmptyTriangle:
    def test_lattice_walk_matches_box_scan(self, monkeypatch):
        # every index-n sublattice for n <= 60: the check on the pair
        # (H, E) alone, which finds points in hundreds of triangles, and
        # he_analysis as a whole, segment branch and excluded shapes included
        def check_outcome(check, L, H, E, allowed):
            try:
                check(L, H, E, allowed)
            except StructureViolation as exc:
                return str(exc)

        found = 0
        lattices = [L for n in range(1, 61) for _, _, _, L in enumerate_sublattices(n)]
        for L in lattices:
            H, E = find_H(L), find_E(L)
            got = check_outcome(rank2._check_empty_triangle, L, H, E, {H, E})
            assert got == check_outcome(box_empty_triangle, L, H, E, {H, E}), L
            found += got is not None
        assert found >= 100
        walked = [he_outcome(L) for L in lattices]
        monkeypatch.setattr(rank2, "_check_empty_triangle", box_empty_triangle)
        assert walked == [he_outcome(L) for L in lattices]

    def test_no_membership_tests(self, monkeypatch):
        calls = [0]
        contains = LatticeBasis.__contains__

        def counting(self, v):
            calls[0] += 1
            return contains(self, v)

        L = LatticeBasis.from_generators([(7, 3), (0, 11)])
        H, E = find_H(L), find_E(L)
        monkeypatch.setattr(LatticeBasis, "__contains__", counting)
        rank2._check_empty_triangle(L, H, E, {H, E})
        assert calls[0] == 0


class TestHeAnalysis:
    def test_basis_example(self):
        he = he_analysis(kernel(5, (1, 4)))
        assert he.H == (-2, 3) and he.E == (3, -2)
        assert he.det == 5 and he.forms_basis
        assert he.segment == () and he.step is None
        assert he.staircase_points() == ((-2, 3), (1, 1), (3, -2))
        assert he.dspan_bound() == 2

    def test_segment_three_points(self):
        L = LatticeBasis.from_generators([(3, 1), (0, 4)])
        he = he_analysis(L)
        assert not he.forms_basis
        assert he.segment == ((0, 4), (3, 1), (6, -2))
        assert he.step == 3
        assert he.dspan_bound() == 5

    def test_segment_four_points(self):
        he = he_analysis(LatticeBasis.from_generators([(2, 4), (0, 6)]))
        assert he.segment == ((0, 6), (2, 4), (4, 2), (6, 0))
        assert he.step == 2
        assert he.dspan_bound() == 6

    def test_segment_long_step(self):
        he = he_analysis(LatticeBasis.from_generators([(1, 1), (0, 12)]))
        assert he.segment == ((-5, 7), (1, 1), (7, -5))
        assert he.step == 6
        assert he.dspan_bound() == 6

    def test_staircase_drops_dominated_corner(self):
        # H on the a2 axis makes H + E redundant: it dominates E pointwise.
        L = LatticeBasis.from_generators([(3, 1), (0, 2)])
        he = he_analysis(L)
        assert he.forms_basis
        assert he.staircase_points() == ((0, 2), (3, -1))
        assert he.dspan_bound() == 3
        assert dspan(L).value == 3

    def test_rectangular_lattice(self):
        # both extremal points on the axes; only the pair survives
        L = LatticeBasis.from_generators([(2, 0), (0, 3)])
        he = he_analysis(L)
        assert he.staircase_points() == ((0, 3), (2, 0))
        assert he.dspan_bound() == 3
        assert dspan(L).value == 3

    def test_sweep_consistency(self):
        for n in (4, 6, 9, 10):
            for a, b, d, L in enumerate_sublattices(n):
                if (1, 0) in L or (0, 1) in L or (1, -1) in L:
                    continue
                he = he_analysis(L)
                if he.forms_basis:
                    assert abs(he.det) == n
                else:
                    assert weight(he.H) * he.step == n
                    assert all(p in L for p in he.segment)
                bound = he.dspan_bound()
                assert dspan(L).value <= bound <= n // 2


class TestStaircaseBound:
    def test_values(self):
        assert staircase_dspan_bound([(-2, 3), (1, 1), (3, -2)]) == 2
        assert staircase_dspan_bound([(0, 4), (3, 1), (6, -2)]) == 5
        assert staircase_dspan_bound([(0, 2), (3, -1)]) == 3

    def test_clamped_at_zero(self):
        assert staircase_dspan_bound([(0, 1), (1, 0)]) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            staircase_dspan_bound([(0, 1)])
        with pytest.raises(ValueError):
            staircase_dspan_bound([(0, 1, 2), (1, 0, 0)])
        with pytest.raises(ValueError):
            staircase_dspan_bound([(0, 2), (2, -2)])  # zero weight
        with pytest.raises(ValueError):
            staircase_dspan_bound([(0, 2), (0, 1)])  # first coords stall
        with pytest.raises(ValueError):
            staircase_dspan_bound([(-1, 3), (1, 4)])  # second coords rise
        with pytest.raises(ValueError):
            staircase_dspan_bound([(1, 2), (2, -1)])  # starts right of axis
        with pytest.raises(ValueError):
            staircase_dspan_bound([(-1, 3), (1, 2)])  # ends above axis


class TestEnumerate:
    def test_sigma(self):
        assert [sigma(n) for n in (1, 6, 8, 9, 12, 24)] == [1, 12, 15, 13, 28, 60]

    @pytest.mark.parametrize("n", [0, -4])
    def test_nonpositive_index_rejected(self, n):
        with pytest.raises(ValueError, match="index must be positive"):
            sigma(n)
        with pytest.raises(ValueError, match="index must be positive"):
            list(enumerate_sublattices(n))

    def test_complete_and_distinct(self):
        rows = list(enumerate_sublattices(12))
        assert len(rows) == sigma(12)
        assert len({L.columns for _, _, _, L in rows}) == len(rows)
        for a, b, d, L in rows:
            assert a * d == 12 and 0 <= b < d
            assert L.index == 12

    def test_excluded_shapes(self):
        # e_1, e_2 and e_1 - e_2 each live in exactly one sublattice shape
        for n in (2, 5, 6, 12):
            excluded = {
                (a, b, d)
                for a, b, d, L in enumerate_sublattices(n)
                if (1, 0) in L or (0, 1) in L or (1, -1) in L
            }
            assert excluded == {(n, 0, 1), (1, 0, n), (1, n - 1, n)}

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            list(enumerate_sublattices(0))


class TestHrdVerify:
    def test_frozen_counts(self):
        for n, sig, excl, maxds in ((6, 12, 3, 3), (8, 15, 3, 4),
                                    (9, 13, 3, 4), (12, 28, 3, 6)):
            rep = hrd_verify(n)
            assert rep.ok and rep.violations == ()
            assert rep.sigma == sig and rep.count == sig
            assert rep.excluded_count == excl
            assert rep.max_dspan_nonexcluded == maxds

    def test_nonbasis_rows(self):
        frozen = {
            6: [(2, 1, 3), (1, 1, 6), (1, 2, 6)],
            8: [(2, 2, 4), (1, 1, 8), (1, 3, 8)],
            9: [(1, 2, 9), (1, 5, 9)],
            12: [(3, 1, 4), (2, 1, 6), (2, 4, 6), (1, 1, 12),
                 (1, 2, 12), (1, 3, 12), (1, 5, 12), (1, 7, 12)],
        }
        for n, expected in frozen.items():
            rows = hrd_verify(n).rows
            got = [(r.a, r.b, r.d) for r in rows if r.forms_basis is False]
            assert got == expected

    def test_tiny_indices(self):
        rep1 = hrd_verify(1)
        assert rep1.count == 1 and rep1.excluded_count == 1
        assert rep1.max_dspan_nonexcluded is None
        rep2 = hrd_verify(2)
        assert rep2.excluded_count == 3 == rep2.count

    def test_sweep_clean(self):
        for n in range(1, 17):
            assert hrd_verify(n).ok

    def test_row_fields(self):
        for row in hrd_verify(10).rows:
            if row.excluded:
                assert row.bound_ok is None and row.forms_basis is None
            else:
                assert row.bound_ok is True
                assert row.dspan <= row.staircase_bound <= 5

    def test_excluded_can_break_halving(self):
        # the shape containing e_1 pushes dspan to n - 1
        rows = {(r.a, r.b, r.d): r for r in hrd_verify(6).rows}
        assert rows[(1, 0, 6)].excluded and rows[(1, 0, 6)].dspan == 5

    def test_jobs_invariance(self):
        assert hrd_verify(10, jobs=2).to_json() == hrd_verify(10).to_json()

    def test_json_shape(self):
        payload = json.loads(hrd_verify(6).to_json())
        assert payload["n"] == 6 and len(payload["rows"]) == 12
        assert payload["violations"] == []
        assert {"a", "b", "d", "dspan", "excluded"} <= set(payload["rows"][0])


class TestSpotChecks:
    def test_bite(self):
        for n, coeffs in ((5, (1, 4)), (7, (1, 2)), (6, (1, 5)), (5, (1, 2, 4))):
            ok, detail = bite_check(kernel(n, coeffs), samples=30, seed=1)
            assert ok and detail["checked"] == 30

    def test_bite_deterministic(self):
        L = kernel(7, (1, 2))
        assert bite_check(L, seed=9) == bite_check(L, seed=9)

    def test_blob(self):
        ok, detail = blob_check(kernel(5, (1, 4)))
        assert ok and detail["witnesses"] == 5 and detail["radius"] == 4
        assert blob_check(LatticeBasis.from_generators([(3, 1), (0, 2)]))[0]

    def test_blob_radius_override(self):
        ok, detail = blob_check(kernel(5, (1, 4)), radius=4)
        assert ok and detail["radius"] == 4

    def test_blob_matches_brute_force(self, monkeypatch):
        # blob_check against a filter over the congruence-only oracle's
        # members in (norm, lex) order; the planted witnesses dominate many
        # members, so the first violation found also pins the member order
        def reference(system, radius, witnesses):
            members = sorted(oracles.members_up_to(system, radius),
                             key=lambda p: (l1norm(p), p))
            for a in members:
                if weight(a) > 0:
                    for w in witnesses:
                        if all(x <= y for x, y in zip(a, w)):
                            return False, {"point": a, "witness": w}
            return True, {"witnesses": len(witnesses), "radius": radius}

        radius_for = {2: 24, 3: 12, 4: 7}
        for system in random_congruence_systems(30, 4, m_choices=(2, 3, 4), n_max=12):
            L = from_congruences(system)
            radius = min(2 * L.index, radius_for[system.m])
            real = list(dspan(L).witnesses.values())
            assert blob_check(L, radius) == reference(system, radius, real), system
            planted = [tuple(range(system.m)), (radius // 2,) * system.m]
            monkeypatch.setattr(rank2, "dspan", lambda L: SimpleNamespace(
                witnesses=dict(enumerate(planted))))
            got = blob_check(L, radius)
            assert got == reference(system, radius, planted), system
            monkeypatch.undo()

    def test_blob_default_radius_finds_the_first_violation(self, monkeypatch):
        # the default radius, twice the largest witness norm, finds the same
        # first violation as the radius 2 * index, with the planted
        # witnesses of test_blob_matches_brute_force
        def found(result):
            ok, detail = result
            return ok, detail.get("point"), detail.get("witness")

        radius_for = {2: 24, 3: 12, 4: 7}
        for system in random_congruence_systems(30, 4, m_choices=(2, 3, 4), n_max=12):
            L = from_congruences(system)
            radius = min(2 * L.index, radius_for[system.m])
            planted = [tuple(range(system.m)), (radius // 2,) * system.m]
            monkeypatch.setattr(rank2, "dspan", lambda L: SimpleNamespace(
                witnesses=dict(enumerate(planted))))
            default = blob_check(L)
            assert not default[0], system
            assert found(default) == found(blob_check(L, 2 * L.index)), system
            monkeypatch.undo()

    def test_blob_default_radius_reaches_the_bound(self, monkeypatch):
        # the only weight-positive member under w = (5, 0) is (5, -4), of
        # norm 2|w| - 1, so the default radius may not be any smaller
        L = LatticeBasis.from_generators([(5, -4), (0, 100)])
        monkeypatch.setattr(rank2, "dspan", lambda L: SimpleNamespace(witnesses={0: (5, 0)}))
        assert blob_check(L) == (False, {"point": (5, -4), "witness": (5, 0)})

    def test_structure_violation_importable(self):
        assert issubclass(StructureViolation, RuntimeError)
