"""The seeded sweep generator is part of the reproducibility contract."""

import random

import pytest

from invlat.constructions import is_prime
from invlat.sampling import random_congruence_systems, scan_cell_systems


class TestRandomSystems:
    def test_deterministic(self):
        a = random_congruence_systems(20, seed=7)
        b = random_congruence_systems(20, seed=7)
        assert a == b
        assert a != random_congruence_systems(20, seed=8)

    def test_shapes(self):
        for s in random_congruence_systems(50, seed=0, m_choices=(2, 3), n_max=30):
            (n,) = s.moduli
            (row,) = s.coefficients
            assert len(row) in (2, 3)
            assert max(3, len(row) + 1) <= n <= 30
            assert all(1 <= c < n for c in row)
            assert len(set(row)) == len(row)

    def test_prime_only(self):
        systems = random_congruence_systems(30, seed=2, prime_only=True)
        assert all(is_prime(s.moduli[0]) for s in systems)

    def test_prime_only_without_a_prime_in_range(self):
        # [24, 24] holds no prime, so redrawing n could never stop
        with pytest.raises(ValueError, match="m = 23, n_max = 24"):
            random_congruence_systems(1, 0, m_choices=(23,), n_max=24, prime_only=True)

    def test_recipe_is_frozen(self):
        # the documented procedure, replayed by hand
        rng = random.Random(5)
        expected = []
        for _ in range(10):
            m = rng.choice((2, 3, 4))
            n = rng.randint(max(3, m + 1), 50)
            expected.append((n, tuple(rng.sample(range(1, n), m))))
        got = [(s.moduli[0], s.coefficients[0])
               for s in random_congruence_systems(10, seed=5)]
        assert got == expected

    def test_empty_and_invalid(self):
        assert random_congruence_systems(0, seed=0) == []
        with pytest.raises(ValueError):
            random_congruence_systems(-1, seed=0)
        with pytest.raises(ValueError):
            random_congruence_systems(5, seed=0, n_max=3)
        for choices in ((0, 2), (2, 20)):
            with pytest.raises(ValueError, match="n_max = 20"):
                random_congruence_systems(5, seed=0, m_choices=choices, n_max=20)


class TestScanCellSystems:
    def test_recipe_is_frozen(self):
        # coefficient rows that `scan --family random` drew for these cells
        # before the recipe moved here from the CLI
        pinned = {
            (5, 2, 3, 0): [(2, 3), (3, 2), (3, 4)],
            (7, 3, 4, 1): [(2, 4, 3), (5, 6, 4), (4, 1, 2), (3, 4, 5)],
            (11, 4, 2, 5): [(8, 1, 6, 5), (9, 5, 1, 8)],
            (13, 6, 3, 42): [(6, 1, 8, 5, 4, 12), (5, 9, 6, 10, 7, 12),
                             (7, 12, 3, 1, 4, 5)],
        }
        for (p, m, samples, seed), rows in pinned.items():
            systems = scan_cell_systems(p, m, samples, seed)
            assert [s.moduli for s in systems] == [(p,)] * samples
            assert [s.coefficients[0] for s in systems] == rows
