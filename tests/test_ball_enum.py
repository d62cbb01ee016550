import random
import tracemalloc
from math import comb, gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from invlat import ball_enum, degree_bounds, geomnum
from invlat.ball_enum import LATTICE_MODES, points_up_to, shell_points, shell_walker
from invlat.constructions import SharpCaseSpec, sharp_case_lattice
from invlat.lattice_core import CongruenceSystem, LatticeBasis, from_congruences, l1norm
from invlat.sampling import random_congruence_systems

import oracles
from oracles import ball_count, lattice_shell_points


def test_shells_partition_the_ball():
    for m in (1, 2, 3):
        for radius in (0, 1, 4):
            shells = [list(shell_points(m, d, "all")) for d in range(radius + 1)]
            union = [p for shell in shells for p in shell]
            assert len(union) == len(set(union))
            assert set(union) == set(oracles.box_points(m, radius))
            for d, shell in enumerate(shells):
                assert all(l1norm(p) == d for p in shell)


def test_nonnegative_mode():
    pts = set(shell_points(3, 3, "nonnegative"))
    assert pts == {p for p in oracles.nonneg_points(3, 3) if sum(p) == 3}
    assert list(points_up_to(2, 2, "nonnegative")) == sorted(
        points_up_to(2, 2, "nonnegative"), key=lambda p: (l1norm(p), p)
    )


def test_lex_order_within_shell():
    for mode in ("all", "nonnegative"):
        shell = list(shell_points(3, 4, mode))
        assert shell == sorted(shell)


def test_shell_count_closed_form():
    for m in (1, 2, 3, 4):
        for d in (0, 1, 2, 5, 9):
            assert oracles.shell_count(m, d, "all") == len(list(shell_points(m, d, "all")))
            assert oracles.shell_count(m, d, "nonnegative") == comb(d + m - 1, m - 1)


def test_ball_count_closed_form():
    for m in (1, 2, 3, 4):
        for d in (0, 1, 2, 5):
            ball = list(points_up_to(m, d, "all"))
            assert ball_count(m, d, "all") == len(ball)
            assert ball_count(m, d, "half") == sum(1 for p in ball if lead(p) <= 0)
            assert ball_count(m, d, "nonnegative") == len(list(points_up_to(m, d, "nonnegative")))
    assert [ball_count(0, d, mode) for d in (0, 3) for mode in LATTICE_MODES] == [1] * 6


def test_invalid_mode():
    with pytest.raises(ValueError):
        list(shell_points(2, 1, "positive"))


def test_reference_walks_reject_half():
    # the half is a lattice-walker mode; the reference walks must not fall
    # back to a full shell for it
    with pytest.raises(ValueError):
        list(shell_points(2, 1, "half"))
    with pytest.raises(ValueError):
        list(points_up_to(3, 2, "half"))


def test_lattice_points_up_to():
    system = CongruenceSystem((5,), ((1, 4),))
    L = from_congruences(system)
    got = list(oracles.lattice_points_up_to(L, 6, "all"))
    assert got == [p for p in points_up_to(2, 6, "all") if p in L]
    assert (0, 0) in got and (1, 1) in got and (-5, 0) in got


def lead(v):
    """First nonzero coordinate of v, 0 for the zero vector."""
    return next((t for t in v if t), 0)


def reference_shell(L, d, mode):
    """The slow reference for one shell: the filtered shell walk, and for the
    half the "all" walk filtered by the sign of the first nonzero
    coordinate."""
    if mode == "half":
        return [v for v in shell_points(L.dimension, d, "all") if v in L and lead(v) < 0]
    return [v for v in shell_points(L.dimension, d, mode) if v in L]


def assert_search_walk_matches_reference(L, radius, mode):
    """One walker's shells 0..radius, as a search walks them, against the
    reference; returns the walker."""
    walk = shell_walker(L, mode)
    for d in range(radius + 1):
        assert list(walk(d)) == reference_shell(L, d, mode), (L, mode, d)
    return walk


def assert_half_matches_reference(L, radius):
    """The "half" walk against the sign-filtered "all" shell walk, one
    shell at a time and through one walker."""
    for d in range(radius + 1):
        assert list(lattice_shell_points(L, d, "half")) == reference_shell(L, d, "half"), (L, d)
    assert_search_walk_matches_reference(L, radius, "half")


def assert_walker_matches_references(system, radius):
    """lattice_shell_points against the filtered shell walk, shell by shell,
    and one walker over the whole ball against the congruence-only oracle."""
    L = from_congruences(system)
    for mode in ("all", "nonnegative"):
        for d in range(radius + 1):
            assert list(lattice_shell_points(L, d, mode)) == reference_shell(L, d, mode), \
                (system, mode, d)
        expected = sorted(oracles.members_up_to(system, radius, mode),
                          key=lambda p: (l1norm(p), p))
        assert oracles.lattice_points_up_to(L, radius, mode) == expected, (system, mode)
    assert_half_matches_reference(L, radius)


def test_lattice_shell_points_radius_zero():
    L = from_congruences(CongruenceSystem((7,), ((1, 3, 5),)))
    for mode in ("all", "nonnegative"):
        assert list(lattice_shell_points(L, 0, mode)) == [(0, 0, 0)]
    assert list(lattice_shell_points(L, 0, "half")) == []
    with pytest.raises(ValueError):
        list(lattice_shell_points(L, 1, "positive"))
    with pytest.raises(ValueError):
        list(lattice_shell_points(L, -1))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_lattice_shell_points_each_dimension(m):
    for n in (2, 5, 12):
        coeffs = tuple(range(1, m + 1))
        system = CongruenceSystem((n,), (tuple(c % n for c in coeffs),))
        assert_walker_matches_references(system, 7 if m < 5 else 5)


def test_lattice_shell_points_composite_hermite_diagonal():
    systems = random_congruence_systems(60, 11, m_choices=(2, 3, 4), n_max=36)
    unusual = 0
    for system in systems:
        L = from_congruences(system)
        diagonal = [L.columns[i][i] for i in range(L.dimension)]
        unusual += diagonal[:-1] != [1] * (L.dimension - 1)
        assert_walker_matches_references(system, 6)
    assert unusual >= 5  # the sample must reach diagonals other than (1, .., 1, n)


def test_lattice_shell_points_two_row_system():
    system = CongruenceSystem((12, 10), ((1, 2, 3), (5, 0, 7)))
    assert_walker_matches_references(system, 8)


def trailing_block(L):
    """(D, a, E): the last two Hermite columns restricted to the last two rows."""
    m = L.dimension
    return L.columns[m - 2][m - 2], L.columns[m - 2][m - 1], L.columns[m - 1][m - 1]


def test_lattice_shell_points_trailing_block_with_offset():
    # With D > 1 and a != 0 the pair's residue key must fold a * (cx // D)
    # into the second coordinate; the sharp and single-row systems mostly
    # have D = 1 and do not tell a right key from a wrong one.  From m = 4 on
    # only lattices of index <= 12 are kept, whose shells are small.
    rng = random.Random(10)
    found = dict.fromkeys((2, 3, 4, 5), 0)
    while min(found.values()) < 3:
        m = rng.randint(2, 5)
        moduli = tuple(rng.randint(2, 24) for _ in range(rng.randint(1, 2)))
        rows = tuple(tuple(rng.randrange(n) for _ in range(m)) for n in moduli)
        system = CongruenceSystem(moduli, rows)
        L = from_congruences(system)
        D, a, _ = trailing_block(L)
        if D > 1 and a and found[m] < 3 and (m < 4 or L.index <= 12):
            found[m] += 1
            assert_walker_matches_references(system, 7 if m < 5 else 5)


def counting_solves(monkeypatch):
    """Count the trailing_pairs calls through the MonkeyPatch; returns a
    one-item list holding the count."""
    solve = ball_enum.trailing_pairs
    solves = [0]

    def counting(*args):
        solves[0] += 1
        return solve(*args)

    monkeypatch.setattr(ball_enum, "trailing_pairs", counting)
    return solves


@pytest.mark.parametrize("mode, solves_pinned", [
    ("nonnegative", 1287),
    ("half", 4185),
    ("all", 8361),
])
def test_walk_solves_the_pair_once_per_prefix(monkeypatch, mode, solves_pinned):
    # Work gate on one plain walker over the sharp (23, 6) shells 0..8, as
    # a search that holds no form walks them: the walk streams and solves
    # the last two coordinates once per admissible prefix of the first four,
    # with no table of suffixes.  The Hermite diagonal is (1, 1, 1, 1, 1,
    # 23), so every prefix of norm <= d is admissible on shell d, and the
    # solves are the points of the 4-dimensional balls of radius 0..8 in
    # the walk's mode: 1,287, 4,185 and 8,361.
    L = sharp_lattice(23, 6)
    assert [L.columns[i][i] for i in range(6)] == [1] * 5 + [23]
    solves = counting_solves(monkeypatch)
    walk = shell_walker(L, mode)
    for d in range(9):
        assert list(walk(d)) == reference_shell(L, d, mode), (mode, d)
    assert solves[0] == solves_pinned == sum(ball_count(4, d, mode) for d in range(9)), \
        solves[0]


# (n, row): a prime, a row with gcd(n, row) = 2, and a row whose first pivot
# is 2 (v_0 must be even), so the walk steps the first coordinate by d_0 > 1
SINGLE_ROWS = ((7, (1, 2, 3, 5, 6, 4)), (12, (2, 4, 6, 10, 8, 2)), (8, (1, 2, 4, 6, 2, 4)))


@pytest.mark.parametrize("mode", LATTICE_MODES)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_search_walker_each_dimension_and_mode(m, mode):
    # one walker per lattice, shell after shell as a search walks them
    for n, row in SINGLE_ROWS:
        L = from_congruences(CongruenceSystem((n,), (row[:m],)))
        assert_search_walk_matches_reference(L, 8 if m < 5 else 6, mode)


@pytest.mark.parametrize("mode", LATTICE_MODES)
def test_search_walker_many_shells(mode):
    # index 211 in m = 5, one walker up to shell 15 (nonnegative) or 11
    L = from_congruences(CongruenceSystem((211,), ((1, 5, 25, 125, 203),)))
    assert_search_walk_matches_reference(L, 15 if mode == "nonnegative" else 11, mode)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_search_walker_single_row_property(data):
    # single rows in m = 4..6, half of them with gcd(n, row) > 1, through one
    # walker per lattice in every mode
    m = data.draw(st.integers(4, 6), label="m")
    g = data.draw(st.sampled_from((1, 1, 2, 3)), label="gcd factor")
    n = g * data.draw(st.integers(2, 30), label="n / g")
    row = tuple(g * data.draw(st.integers(0, n // g - 1), label="row") for _ in range(m))
    L = from_congruences(CongruenceSystem((n,), (row,)))
    for mode in LATTICE_MODES:
        assert_search_walk_matches_reference(L, 6 if m < 6 else 5, mode)


def test_multi_row_systems_and_bare_bases():
    systems = [CongruenceSystem((12, 10), ((1, 2, 3, 5), (5, 0, 7, 1))),
               CongruenceSystem((6, 4), ((1, 2, 3, 4, 5), (1, 1, 0, 2, 3)))]
    bases = [from_congruences(s) for s in systems]
    bases.append(LatticeBasis.from_generators(
        [(3, 1, 0, 0, 1), (0, 2, 1, 0, 0), (0, 0, 5, 1, 0), (1, 0, 0, 4, 0), (0, 1, 0, 0, 3)]))
    bases.append(LatticeBasis(4, sharp_lattice(7, 4).columns, 7))  # the row dropped
    for L in bases:
        for mode in LATTICE_MODES:
            assert_search_walk_matches_reference(L, 6, mode)


def sharp_lattice(p, m):
    return from_congruences(sharp_case_lattice(SharpCaseSpec(p, m)))


@pytest.mark.parametrize("search, limit", [
    (degree_bounds.bfield, 57),
    (degree_bounds.bfieldr, 92),
    (geomnum.successive_minima, 92),
])
def test_searches_prune_the_answer_shell(monkeypatch, search, limit):
    # Work gate on one sharp (23, 6) search, which walks shells 1..3 and
    # then 8, the answer, holding the form f = (-1, 1, -2, 2, -3, 3) with
    # g = 23: the answer shell solves the pair only after prefixes that can
    # still leave ker f.  Pinned at 57, 92 and 92 solves (58 and 93 while
    # bfield and bfieldr walked shell 0, which holds only 0); walking every
    # shell up to 8 without the form takes 794, 4169 and 4168.
    L = sharp_lattice(23, 6)
    solves = counting_solves(monkeypatch)
    search(L)
    assert 0 < solves[0] <= limit, solves[0]


def test_pruned_answer_shell_yields_the_off_form_members():
    # Work gate on the sharp (53, 6) answer shell, radius 18, in the half
    # the all-orthant searches walk: of its 8,458 members 36 are off the
    # form f the searches hold there, the first of them member 8,418.  The
    # pruned walk yields those 36 and one member of ker f, and bfieldr and
    # successive_minima each pull one member from the shell, not 8,418.
    L = sharp_lattice(53, 6)
    f = (-1, 1, -2, 2, -3, 3)
    g = degree_bounds._form_gcd(f, L)
    assert g == 53 and degree_bounds._off_form_radius(f, L) == 18
    full = list(shell_walker(L, "half")(18))
    got = list(shell_walker(L, "half")(18, (f, g)))
    off = [v for v in full if sum(map(mul, f, v))]
    assert len(full) == 8458 and len(off) == 36 and len(got) <= 37, (len(full), len(got))
    assert [v for v in got if sum(map(mul, f, v))] == off
    for search in (degree_bounds.bfieldr, geomnum.successive_minima):
        pulled = []

        def counting(L, mode):
            walk = shell_walker(L, mode)

            def counted(d, *form):
                for v in walk(d, *form):
                    pulled.append(d)
                    yield v
            return counted

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(degree_bounds, "shell_walker", counting)
            search(L)
        assert pulled.count(18) == 1, (search.__name__, pulled.count(18))


# the shells the pruned-walk property compares, by dimension: the reference
# filters every point of each shell up to these radii, about 3,600 in all
PRUNE_RADII = {1: 30, 2: 20, 3: 12, 4: 8, 5: 6, 6: 5}


@settings(max_examples=80, deadline=None, database=None)
@given(st.data())
def test_pruned_walk_against_reference(data):
    # walk(d, (f, g)) drops only prefixes whose every completion has
    # |f . v| < g, and g divides f . v on L: so it yields every member off
    # ker f that the reference shell holds, in its order, and nothing else
    # but members of that shell, also in its order.  One- and two-row
    # systems and bare bases, m 1..6, every mode; f is random, a row of the
    # system (residues centred on 0, as the sharp forms are), or the
    # primitive form vanishing on m - 1 columns of L, which a search holds
    # once those columns span its accumulator.
    kind = data.draw(st.sampled_from(("one row", "two rows", "bare basis")), label="kind")
    m = data.draw(st.integers(1, 6), label="m")
    if kind == "bare basis":
        gens = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                                  min_size=m, max_size=m), label="generators")
        try:
            L = LatticeBasis.from_generators(gens, m)
        except ValueError:
            assume(False)
        rows, moduli = (), ()
    else:
        k = 1 if kind == "one row" else 2
        moduli = tuple(data.draw(st.lists(st.integers(2, 30), min_size=k, max_size=k),
                                 label="moduli"))
        rows = tuple(tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
                                     label="row")) for n in moduli)
        L = from_congruences(CongruenceSystem(moduli, rows))
    choice = data.draw(st.sampled_from(("random", "row", "columns")), label="form")
    if choice == "row" and rows:
        n = moduli[0]
        f = tuple((c + n // 2) % n - n // 2 for c in rows[0])
    elif choice == "columns" and m > 1:
        j = data.draw(st.integers(0, m - 1), label="column left out")
        f = geomnum.determinant_form(L.columns[:j] + L.columns[j + 1:], m).coefficients
    else:
        f = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m), label="f"))
    assume(any(f))
    c = gcd(*f)
    f = tuple(x // c for x in f)
    g = degree_bounds._form_gcd(f, L)
    for mode in LATTICE_MODES:
        walk = shell_walker(L, mode)
        for d in range(PRUNE_RADII[m] + 1):
            reference = reference_shell(L, d, mode)
            got = list(walk(d, (f, g)))
            assert [v for v in got if sum(map(mul, f, v))] == \
                [v for v in reference if sum(map(mul, f, v))], (L, f, mode, d)
            rest = iter(reference)
            assert all(v in rest for v in got), (L, f, mode, d)
            # the same walker without the form walks the whole shell
            assert list(walk(d)) == reference, (L, f, mode, d)


def test_low_reuse_walk_streams():
    # Index 100003 on this shell: 25,025 prefixes, each solved once.  The
    # walk keeps no solves, so its memory does not grow with the prefix
    # count; keying them all takes megabytes.
    L = from_congruences(CongruenceSystem((100003,), ((1, 343, 2401, 16807, 17646, 23519),)))
    tracemalloc.start()
    try:
        for _ in lattice_shell_points(L, 16, "half"):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_low_reuse_search_walker_streams():
    # The same lattice through the walker bfieldr holds, over radii 0..16:
    # nothing is kept from shell to shell, so the memory stays that of one
    # streaming shell.
    L = from_congruences(CongruenceSystem((100003,), ((1, 343, 2401, 16807, 17646, 23519),)))
    tracemalloc.start()
    try:
        walk = shell_walker(L, "half")
        for d in range(17):
            for _ in walk(d):
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_lattice_shell_points_property(data):
    m = data.draw(st.integers(1, 4), label="m")
    r = data.draw(st.integers(1, 2), label="rows")
    moduli = tuple(data.draw(st.lists(st.integers(2, 15), min_size=r, max_size=r),
                             label="moduli"))
    rows = tuple(
        tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
                        label="row"))
        for n in moduli)
    assert_walker_matches_references(CongruenceSystem(moduli, rows), 5)


def test_half_mode_one_dimension():
    L = from_congruences(CongruenceSystem((6,), ((2,),)))  # 3Z
    assert [list(lattice_shell_points(L, d, "half")) for d in range(7)] == [
        [], [], [], [(-3,)], [], [], [(-6,)]]


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_half_mode_property(data):
    # half, its negation and (on shell 0) the zero vector split the "all"
    # shell, and half is the sign-filtered "all" walk
    m = data.draw(st.integers(1, 5), label="m")
    moduli = tuple(data.draw(st.lists(st.integers(2, 40), min_size=1, max_size=2),
                             label="moduli"))
    rows = tuple(
        tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
                        label="row"))
        for n in moduli)
    L = from_congruences(CongruenceSystem(moduli, rows))
    d = data.draw(st.integers(0, 7 if m < 5 else 5), label="radius")
    half = list(lattice_shell_points(L, d, "half"))
    negated = [tuple(-t for t in v) for v in half]
    zero = [(0,) * m] if d == 0 else []
    assert sorted(half + negated + zero) == list(lattice_shell_points(L, d, "all"))
    assert_half_matches_reference(L, d)
