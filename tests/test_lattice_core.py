import itertools
import json
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from invlat.lattice_core import (
    AllColumnsRemovedError,
    CongruenceSystem,
    GeneratedLattice,
    InvalidSystemError,
    LatticeBasis,
    _gcd_step,
    detect_trivial_or_duplicate,
    drop_trivial_and_duplicates,
    from_congruences,
    hnf_columns,
    integer_kernel,
    is_generating,
    l1norm,
    weight,
)

import oracles


def sys_of(n, row):
    return CongruenceSystem((n,), (tuple(row),))


def random_system(rng):
    m = rng.choice((2, 3, 4))
    n = rng.randint(m + 1, 24)
    return CongruenceSystem((n,), (tuple(rng.sample(range(1, n), m)),))


def presentation_label(L, v):
    rows, moduli = L.presentation
    return tuple(sum(a * x for a, x in zip(row, v)) % n for row, n in zip(rows, moduli))


@st.composite
def presented_lattices(draw):
    """(L, system): kernels of one- and two-row systems, some rows sharing a
    factor with their modulus, or (bare basis, None)."""
    m = draw(st.integers(1, 4), label="m")
    if draw(st.booleans(), label="bare"):
        gens = draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                             min_size=m, max_size=m), label="generators")
        try:
            return LatticeBasis.from_generators(gens, m), None
        except ValueError:
            assume(False)
    moduli, rows = [], []
    for _ in range(draw(st.integers(1, 2), label="rows")):
        g, k = draw(st.integers(1, 3), label="factor"), draw(st.integers(2, 6), label="k")
        moduli.append(g * k)
        rows.append(tuple(g * draw(st.integers(0, k - 1)) for _ in range(m)))
    system = CongruenceSystem(tuple(moduli), tuple(rows))
    return from_congruences(system), system


class TestHelpers:
    def test_norm_and_weight(self):
        assert l1norm((1, -3, 0)) == 4
        assert weight((1, -3, 0)) == -2
        assert l1norm(()) == 0

    @pytest.mark.parametrize("carrier, col, j", [
        ([0, 2, 3], [5, 1, -4], 0),
        ([0, -3, 1], [-4, 6, 2], 0),
        ([0, 0, 2], [0, -6, 5], 1),
    ])
    def test_gcd_step_with_zero_carrier_entry(self, carrier, col, j):
        # a zero carrier[j] takes the xgcd branch: the step is unimodular,
        # so the independent pair spans what it spanned, and clears col[j]
        before = hnf_columns([carrier, col], len(col))
        c, v = list(carrier), list(col)
        _gcd_step(c, v, j)
        assert v[j] == 0 and abs(c[j]) == abs(col[j])
        assert (c[:j], v[:j]) == (carrier[:j], col[:j])
        assert hnf_columns([c, v], len(col)) == before

    def test_hnf_worked_example(self):
        cols, pivots = hnf_columns([(1, 1), (3, -1), (0, 4)], 2)
        assert cols == [(1, 1), (0, 4)]
        assert pivots == [0, 1]

    def test_hnf_canonical_under_generator_shuffle(self):
        rng = random.Random(5)
        for _ in range(40):
            system = random_system(rng)
            L = from_congruences(system)
            gens = list(L.columns) + [
                tuple(a + b for a, b in zip(L.columns[0], L.columns[-1]))
            ]
            for _ in range(3):
                rng.shuffle(gens)
                again = LatticeBasis.from_generators(gens)
                assert again == L

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.data())
    def test_hnf_rank_deficient_property(self, data):
        # inputs drawn from the span of fewer than m vectors, so rank < m
        m = data.draw(st.integers(1, 4), label="m")
        entry = st.integers(-5, 5)
        base = data.draw(st.lists(st.tuples(*[entry] * m), max_size=m - 1), label="base")
        coef = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
        vectors = [tuple(sum(c * b[k] for c, b in zip(cs, base)) for k in range(m))
                   for cs in data.draw(st.lists(coef, max_size=5), label="coefficients")]
        cols, pivot_rows = hnf_columns(vectors, m)
        for v in vectors:
            assert oracles.in_integer_span(cols, v, m)
        for c in cols:
            assert oracles.in_integer_span(vectors, c, m)
        # canonical shape: one column per pivot row, rows ascending, zero
        # above the pivot, positive pivot, reduced below other pivots
        assert len(cols) == len(pivot_rows) == oracles.rank_of(vectors)
        assert pivot_rows == sorted(set(pivot_rows))
        for c, r in zip(cols, pivot_rows):
            assert len(c) == m and not any(c[:r]) and c[r] > 0
            for c2, r2 in zip(cols, pivot_rows):
                if r2 > r:
                    assert 0 <= c[r2] < c2[r2]
        shuffled = data.draw(st.permutations(vectors), label="shuffled")
        assert hnf_columns(shuffled, m) == (cols, pivot_rows)


class TestIntegerKernel:
    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(30):
            r = rng.randint(1, 3)
            m = rng.randint(r, 4)
            rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(r)]
            kernel = integer_kernel(rows, m)
            for v in kernel:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
            # completeness: rank(kernel) + rank(rows) = m
            assert len(kernel) == m - oracles.rank_of(rows)
            if kernel:
                assert oracles.rank_of(kernel) == len(kernel)

    def test_kernel_is_the_whole_lattice(self):
        # every kernel vector in a box is an integer combination of the basis
        rng = random.Random(12)
        found = 0
        for _ in range(30):
            r = rng.randint(1, 2)
            m = rng.randint(r + 1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
            kernel = integer_kernel(rows, m)
            span = hnf_columns(kernel, m)
            for v in itertools.product(range(-3, 4), repeat=m):
                if any(v) and all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows):
                    found += 1
                    assert hnf_columns(kernel + [v], m) == span, (rows, v)
        assert found > 100


class TestCongruenceSystem:
    def test_validation(self):
        with pytest.raises(InvalidSystemError):
            CongruenceSystem((), ())
        with pytest.raises(InvalidSystemError):
            CongruenceSystem((4,), ((1, 4),))  # coefficient out of range
        with pytest.raises(InvalidSystemError):
            CongruenceSystem((4, 3), ((1, 1),))  # row count mismatch
        with pytest.raises(InvalidSystemError):
            CongruenceSystem((1,), ((0,),))  # modulus < 2

    @pytest.mark.parametrize("moduli, coefficients, message", [
        ([4], ((1, 3),), "moduli and coefficients must be tuples"),
        ((4,), [(1, 3)], "moduli and coefficients must be tuples"),
        ((4,), ((),), "empty coefficient rows are not allowed"),
        ((4, 3), ((1, 3), ()), "empty coefficient rows are not allowed"),
        ((4, 3), ((1, 3), (1,)), "coefficient rows must be tuples of equal length"),
        ((4, 3), ((1, 3), [1, 2]), "coefficient rows must be tuples of equal length"),
    ])
    def test_rejects_shape(self, moduli, coefficients, message):
        with pytest.raises(InvalidSystemError) as exc:
            CongruenceSystem(moduli, coefficients)
        assert str(exc.value) == message

    def test_label(self):
        s = sys_of(4, (1, 3))
        assert s.label((0, 1)) == (3,)
        assert s.label((1, 1)) == (0,)
        assert s.label((-1, 0)) == (3,)
        for v in ((1,), (0, 1, 0)):
            with pytest.raises(ValueError) as exc:
                s.label(v)
            assert type(exc.value) is ValueError
            assert str(exc.value) == "vector length does not match the system"

    def test_json_roundtrip(self):
        s = CongruenceSystem((4, 6), ((1, 3), (2, 5)))
        assert CongruenceSystem.from_json(s.to_json()) == s
        with pytest.raises(InvalidSystemError):
            CongruenceSystem.from_json("{bad")
        with pytest.raises(InvalidSystemError):
            CongruenceSystem.from_json('{"moduli": [4]}')
        with pytest.raises(InvalidSystemError):
            CongruenceSystem.from_json('{"moduli": 4, "coefficients": [[1]]}')


class TestLatticeBasis:
    def test_from_congruences_worked_example(self):
        L = from_congruences(sys_of(4, (1, 3)))
        assert L.columns == ((1, 1), (0, 4))
        assert L.index == 4

    def test_membership_against_oracle(self):
        rng = random.Random(2)
        for _ in range(30):
            system = random_system(rng)
            L = from_congruences(system)
            assert L.index == oracles.subgroup_order(system)
            radius = min(2 * L.index, 9)
            members = {
                p for p in oracles.box_points(system.m, radius) if p in L
            }
            assert members == set(oracles.members_up_to(system, radius))

    def test_reduce_and_coords(self):
        rng = random.Random(3)
        for _ in range(25):
            system = random_system(rng)
            L = from_congruences(system)
            for _ in range(10):
                v = tuple(rng.randint(-15, 15) for _ in range(system.m))
                r = L.reduce(v)
                diff = tuple(a - b for a, b in zip(v, r))
                assert diff in L
                # canonical: members reduce to zero, residues are stable
                assert L.reduce(r) == r
                if v in L:
                    assert r == tuple([0] * system.m)
                    coords = L.coords(v)
                    rebuilt = tuple(
                        sum(c * col[k] for c, col in zip(coords, L.columns))
                        for k in range(system.m)
                    )
                    assert rebuilt == v

    def test_reduce_labels_cosets_bijectively(self):
        system = sys_of(6, (1, 5))
        L = from_congruences(system)
        residues = {L.reduce(p) for p in oracles.box_points(2, 8)}
        assert len(residues) == L.index

    @settings(max_examples=150, deadline=None, database=None)
    @given(presented_lattices())
    def test_presentation_labels_name_cosets(self, case):
        # zero exactly on L, and equal exactly where L.reduce is equal
        L, system = case
        points = list(oracles.box_points(L.dimension, 3))
        labels = [presentation_label(L, p) for p in points]
        for p, lab in zip(points, labels):
            assert (not any(lab)) == (p in L), (L, p)
            if system is not None:
                assert lab == oracles.label(system, p)
        pairs = set(zip(labels, map(L.reduce, points)))
        assert len(pairs) == len(set(labels)) == len({r for _, r in pairs})

    def test_presentation_takes_no_part_in_equality(self):
        system = CongruenceSystem((6, 4), ((1, 5, 2), (2, 0, 2)))
        L = from_congruences(system)
        bare = LatticeBasis.from_generators(L.columns)
        assert L.presentation == (system.coefficients, system.moduli)
        assert bare.presentation[1] == (L.index,) * 3
        assert bare == L and hash(bare) == hash(L)

    def test_from_generators_rejects_rank_deficit(self):
        with pytest.raises(ValueError):
            LatticeBasis.from_generators([(1, 1), (2, 2)])

    def test_from_generators_rejects_wrong_length_zero_vector(self):
        with pytest.raises(ValueError):
            LatticeBasis.from_generators([(1, 0), (0, 0, 0), (0, 2)])

    def test_from_generators_needs_a_dimension_for_no_generators(self):
        with pytest.raises(ValueError) as exc:
            LatticeBasis.from_generators([])
        assert type(exc.value) is ValueError
        assert str(exc.value) == "cannot infer dimension from an empty generator list"

    def test_identity(self):
        E = LatticeBasis.identity(3)
        assert E.index == 1
        assert (5, -7, 0) in E

    def test_json_roundtrip(self):
        L = from_congruences(sys_of(7, (1, 2)))
        again = LatticeBasis.from_json(L.to_json())
        assert again == L

    @pytest.mark.parametrize("text, message", [
        ("{bad", "not valid JSON"),
        ("{}", 'expected an object with "dimension", "columns" and "index"'),
        ('{"dimension": 2, "columns": [[1, 0], [0, 7]]}', "expected an object"),
        ('{"dimension": true, "columns": [[1]], "index": 1}', "dimension True is not a positive"),
        ('{"dimension": 2, "columns": [[1, 0], [0, 7]], "index": 7.0}', "index 7.0 is not an"),
        ('{"dimension": 2, "columns": 5, "index": 7}', "columns must be a list of lists of 2"),
        ('{"dimension": 2, "columns": [[1, 0], [0]], "index": 7}', "columns must be a list"),
        ('{"dimension": 2, "columns": [[true, 0], [0, 7]], "index": 7}', "entry True is not an"),
        ('{"dimension": 2, "columns": [[1.5, 0], [0, 7]], "index": 7}', "entry 1.5 is not an"),
        ('{"dimension": 2, "columns": [[1, 0], [0, 7]], "index": 8}', "stored index does not"),
    ])
    def test_from_json_rejects_malformed_input(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LatticeBasis.from_json(text)


class TestTrivialDuplicate:
    def test_detection(self):
        # coefficient 0 makes e_1 invariant; equal coefficients tie 2 and 3
        system = CongruenceSystem((5,), ((0, 1, 2, 2),))
        rep = detect_trivial_or_duplicate(from_congruences(system))
        assert rep.trivial_indices == (0,)
        assert rep.duplicate_pairs == ((2, 3),)
        assert not rep.clean

    def test_clean_case(self):
        rep = detect_trivial_or_duplicate(from_congruences(sys_of(5, (1, 4))))
        assert rep.clean

    def test_drop(self):
        system = CongruenceSystem((5,), ((0, 1, 2, 2),))
        cleaned = drop_trivial_and_duplicates(system)
        assert cleaned.coefficients == ((1, 2),)
        with pytest.raises(AllColumnsRemovedError):
            drop_trivial_and_duplicates(CongruenceSystem((5,), ((0, 0),)))

    def test_drop_preserves_degree_bounds(self):
        from invlat.degree_bounds import bfield, bfieldr, dspan

        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(4, 10)
            m = rng.randint(2, 3)
            row = [rng.choice([0] + list(range(1, n))) for _ in range(m)]
            row += [rng.choice(row)]  # force a duplicate
            system = CongruenceSystem((n,), (tuple(row),))
            try:
                cleaned = drop_trivial_and_duplicates(system)
            except AllColumnsRemovedError:
                continue
            L_full = from_congruences(system)
            L_clean = from_congruences(cleaned)
            assert dspan(L_full).value == dspan(L_clean).value
            assert bfield(L_full).value == bfield(L_clean).value
            assert bfieldr(L_full).value == bfieldr(L_clean).value


class TestGeneratedLattice:
    def test_incremental_matches_batch(self):
        rng = random.Random(4)
        for _ in range(25):
            system = random_system(rng)
            L = from_congruences(system)
            acc = GeneratedLattice(system.m)
            vectors = [c for c in L.columns]
            vectors += [tuple(2 * x for x in L.columns[0])]
            rng.shuffle(vectors)
            for v in vectors:
                acc.add(v)
            assert acc.rank == system.m
            assert acc.index == L.index

    def test_contains_grows_monotonically(self):
        acc = GeneratedLattice(2)
        assert (1, 1) not in acc
        acc.add((1, 1))
        assert (2, 2) in acc
        assert (0, 4) not in acc
        acc.add((0, 4))
        assert acc.index == 4

    def test_contains_matches_integer_span_at_every_rank(self):
        # below full rank some rows have no pivot; a vector with a nonzero
        # entry there is not in the span, and neither is a rational-only
        # combination such as half of an added 2v
        rng = random.Random(6)
        below_full = 0
        for _ in range(60):
            m = rng.randint(2, 4)
            acc = GeneratedLattice(m)
            added = []
            for _ in range(m):
                v = tuple(rng.choice((1, 2, 3)) * rng.randint(-4, 4) for _ in range(m))
                acc.add(v)
                added.append(v)
                below_full += acc.rank < m
                for _ in range(8):
                    coefs = [rng.randint(-2, 2) for _ in added]
                    combo = [sum(c * w[k] for c, w in zip(coefs, added)) for k in range(m)]
                    for probe in (combo, [x // 2 for x in combo], [x // 3 for x in combo],
                                  [rng.randint(-6, 6) for _ in range(m)]):
                        expected = oracles.in_integer_span(added, tuple(probe), m)
                        assert (tuple(probe) in acc) == expected, (added, probe)
        assert below_full > 60

    def test_length_mismatch_raises(self):
        L = from_congruences(sys_of(4, (1, 3)))
        acc = GeneratedLattice(2)
        acc.add((1, 1))
        for v in ((4,), (4, 0, 7), (1, 1, 5)):
            for call in (L.coords, L.reduce, L.__contains__, acc.__contains__, acc.add):
                with pytest.raises(ValueError):
                    call(v)

    def test_is_generating(self):
        L = from_congruences(sys_of(4, (1, 3)))
        assert is_generating(L, [(1, 1), (0, 4)])
        assert not is_generating(L, [(1, 1), (2, 2)])
        assert not is_generating(L, [(1, 1), (0, 8)])
