import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import factorial
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from invlat import degree_bounds, geomnum, lattice_core
from invlat.ball_enum import shell_walker
from invlat.constructions import SharpCaseSpec, conjecture_bound, is_prime, sharp_case_lattice
from invlat.degree_bounds import CapExceededError, bfield, bfieldr
from invlat.geomnum import (
    DependentInputError,
    NoSolutionError,
    SuccessiveMinima,
    complete_basis_short,
    determinant_form,
    dual_pair_lift,
    effective_minima_bounds,
    gen_deg_basis,
    mahler_basis,
    minkowski_check,
    successive_minima,
)
from invlat.lattice_core import (
    CongruenceSystem,
    GeneratedLattice,
    InternalError,
    LatticeBasis,
    from_congruences,
    integer_kernel,
    is_generating,
    l1norm,
)
from invlat.sampling import random_congruence_systems

import oracles
from oracles import ball_count, lattice_shell_points
from test_degree_bounds import (
    ROW_SYSTEMS,
    UNSATURATED_ROWS,
    filtered_shell,
    generation_outcome,
    seeded_systems,
    shell_generation_search,
)


def kernel(n, row):
    return from_congruences(CongruenceSystem((n,), (tuple(row),)))


def det_of(vectors):
    return oracles.det_laplace([list(r) for r in zip(*vectors)])


def rank_successive_minima(L, cap=None, walk=lattice_shell_points):
    """Reference successive_minima: every member of each whole shell, all
    orthants, added to a GeneratedLattice and kept when it raises the rank."""
    m = L.dimension
    if cap is None:
        cap = L.index
    acc = GeneratedLattice(m)
    values = []
    witnesses = []
    for d in range(1, cap + 1):
        for v in walk(L, d, "all"):
            acc.add(v)
            if acc.rank > len(values):
                values.append(d)
                witnesses.append(v)
                if len(values) == m:
                    return SuccessiveMinima(tuple(values), tuple(witnesses))
    raise CapExceededError("successive_minima", cap)


def minima_outcome(search, L, cap=None):
    try:
        return search(L, cap)
    except CapExceededError as exc:
        return ("cap", exc.which, exc.cap)


class TestSuccessiveMinima:
    def test_mod5_example(self):
        sm = successive_minima(kernel(5, (1, 4)))
        assert sm.values == (2, 5)
        assert abs(sm.witnesses[0][0]) == 1 and abs(sm.witnesses[0][1]) == 1
        assert l1norm(sm.witnesses[1]) == 5

    def test_identity(self):
        sm = successive_minima(LatticeBasis.identity(3))
        assert sm.values == (1, 1, 1)

    def test_mod4_example(self):
        sm = successive_minima(kernel(4, (1, 3)))
        assert sm.values[0] == 2

    def test_against_oracle(self):
        rng = random.Random(31)
        for _ in range(20):
            m = rng.choice((2, 3))
            n = rng.randint(m + 1, 18)
            system = CongruenceSystem((n,), (tuple(rng.sample(range(1, n), m)),))
            sm = successive_minima(from_congruences(system))
            assert list(sm.values) == oracles.oracle_minima(system)
            assert oracles.rank_of(sm.witnesses) == m

    def test_rank_tracker_matches_rational_rank(self):
        # successive_minima keeps a member when it raises the rank of a
        # GeneratedLattice, and the span-form reference when one of its
        # forms (the identity rows, narrowed at each kept vector) is nonzero
        # on it; both must agree with the rank over Q, as the integer kernel
        # does
        rng = random.Random(34)
        for _ in range(200):
            m = rng.randint(1, 5)
            acc = GeneratedLattice(m)
            chosen = []
            narrowed = [tuple(int(k == j) for k in range(m)) for j in range(m)]
            for _ in range(m + 3):
                if chosen and rng.random() < 0.4:
                    # an integer combination of earlier vectors: dependent
                    v = tuple(sum(rng.randint(-3, 3) * w[k] for w in chosen)
                              for k in range(m))
                else:
                    v = tuple(rng.randint(-6, 6) for _ in range(m))
                grows = oracles.rank_of(chosen + [v]) > oracles.rank_of(chosen)
                forms = integer_kernel(chosen, m)
                assert any(sum(a * x for a, x in zip(f, v)) for f in forms) == grows
                values = [sum(a * x for a, x in zip(f, v)) for f in narrowed]
                assert any(values) == grows
                rank = acc.rank
                acc.add(v)
                assert (acc.rank > rank) == grows
                assert acc.rank == oracles.rank_of(chosen + [v])
                if grows:
                    chosen.append(v)
                    narrowed = oracles.narrow_span_forms(narrowed, values)

    def test_matches_rank_search_on_seeded_systems(self):
        for i, system in enumerate(seeded_systems(200, 47)):
            L = from_congruences(system)
            cap = (None, 1, 2, 3, 5)[i % 5]
            assert minima_outcome(successive_minima, L, cap) == \
                minima_outcome(rank_successive_minima, L, cap), (system, cap)

    @pytest.mark.parametrize("p, m", [(31, 4), (23, 6)])
    def test_matches_rank_search_on_sharp_cases(self, p, m):
        L = from_congruences(sharp_case_lattice(SharpCaseSpec(p, m)))
        assert successive_minima(L) == rank_successive_minima(L)

    @pytest.mark.parametrize("system", ROW_SYSTEMS, ids=str)
    def test_single_rows_against_filtered_rank_search(self, system):
        # single rows of m = 4..6, against the rank search over the
        # filtered reference walk, which shares no walker code
        L = from_congruences(system)
        assert successive_minima(L) == rank_successive_minima(L, walk=filtered_shell)

    def test_no_smaller_independent_sets(self):
        # definitional check: below lambda_i there is no rank-i set
        rng = random.Random(32)
        for _ in range(8):
            m = 2
            n = rng.randint(3, 14)
            system = CongruenceSystem((n,), (tuple(rng.sample(range(1, n), m)),))
            L = from_congruences(system)
            sm = successive_minima(L)
            for i, lam in enumerate(sm.values, start=1):
                below = [p for p in oracles.members_up_to(system, lam - 1)]
                assert oracles.rank_of(below) < i if below else True


def record_shells(mp):
    """Spy, through the MonkeyPatch mp, on the shells the searches walk and
    the radii they skip to.  Returns the event list: ("shell", d) per
    walk(d, held), after ("skip", f, r) when held is a pair (f, g) the walk
    was not called with before, r = ceil(g / max |f_i|) its skip radius."""
    events = []

    def walker(L, mode):
        walk = shell_walker(L, mode)
        last = None

        def walked(d, held=None):
            nonlocal last
            if held is not None and held is not last:
                f, g = held
                events.append(("skip", tuple(f), -(-g // max(map(abs, f)))))
            last = held
            events.append(("shell", d))
            return walk(d, held)
        return walked

    mp.setattr(degree_bounds, "shell_walker", walker)
    return events


# The references walk every member of the whole all-orthant ball up to the
# answer shell through filtered_shell, and the lemma check the ball below
# each skip radius, so draws whose ball holds more points than this are
# rejected (about 1 in 60).  Of the sharp rows this leaves out m = 6 mod
# 29 and 31 and m = 4..6 mod 37 and up; the work gate runs (101, 4).
OFF_FORM_BUDGET = 60_000

# one-row systems the property draws besides random rows: the rows whose
# rank-(m - 1) bfield accumulator is unsaturated, and the sharp rows mod
# primes below 60 within the budget, whose every skip lands on the answer
SKIP_SYSTEMS = UNSATURATED_ROWS + [
    sharp_case_lattice(SharpCaseSpec(p, m, miss))
    for p in range(3, 60) if is_prime(p) for m in range(1, min(p, 7))
    for miss in ([None] if m % 2 == 0 else [1, -1])
    if ball_count(m, conjecture_bound(p, m)) <= OFF_FORM_BUDGET]


class TestOffFormSkip:
    """Once a generation search (bfield, bfieldr, and successive_minima,
    which reads bfieldr's walk) holds a saturated form f, a member v with
    f . v != 0 has norm at least r = ceil(g / max |f_i|), g the gcd of f
    over L, and the search walks no shell below r."""

    @pytest.mark.parametrize("spec, value", [
        (SharpCaseSpec(101, 4), 51), (SharpCaseSpec(31, 5, 1), 11), (SharpCaseSpec(23, 6), 8),
    ], ids=str)
    def test_shells_walked(self, monkeypatch, spec, value):
        # timing-free work gate: on the sharp lattices r is the answer, so
        # each search walks its first shells, up to rank m - 1, then jumps;
        # walking every shell up to the answer took value + 1 shells.  No
        # search walks shell 0, which holds only 0
        L = from_congruences(sharp_case_lattice(spec))
        events = record_shells(monkeypatch)
        walked = {}
        for search in (bfield, bfieldr, successive_minima):
            events.clear()
            search(L)
            walked[search.__name__] = [e[1] for e in events if e[0] == "shell"]
        assert walked == {"bfield": [1, 2, 3, value], "bfieldr": [1, 2, 3, value],
                          "successive_minima": [1, 2, 3, value]}

    def test_one_dimension_walks_the_index_shell_only(self, monkeypatch):
        # in m = 1 the empty accumulator is L ∩ ker f for f = (1,), so each
        # search starts at r = index, the answer, and walks nothing else
        L = kernel(1009, (1,))
        events = record_shells(monkeypatch)
        for search in (bfield, bfieldr, successive_minima):
            events.clear()
            search(L)
            assert [e[1] for e in events if e[0] == "shell"] == [1009], search.__name__

    SEARCHES = (
        (bfield, partial(shell_generation_search, mode="nonnegative", which="bfield",
                         walk=filtered_shell), generation_outcome),
        (bfieldr, partial(shell_generation_search, mode="all", which="bfieldr",
                          walk=filtered_shell), generation_outcome),
        (successive_minima, partial(rank_successive_minima, walk=filtered_shell),
         minima_outcome),
    )

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_skipped_shells_and_searches_against_references(self, data):
        if data.draw(st.booleans(), label="listed"):
            system = data.draw(st.sampled_from(SKIP_SYSTEMS), label="system")
        else:
            m = data.draw(st.integers(1, 6), label="m")
            n = data.draw(st.integers(2, 60), label="n")
            system = CongruenceSystem((n,), (data.draw(
                st.tuples(*[st.integers(0, n - 1)] * m), label="row"),))
        L = from_congruences(system)
        m = L.dimension
        runs, answers = [], []
        with pytest.MonkeyPatch.context() as mp:
            events = record_shells(mp)
            for fast, _, _ in self.SEARCHES:
                events.clear()
                got = fast(L)
                answers.append(got.values[-1] if fast is successive_minima else got.value)
                runs.append(list(events))
        assume(ball_count(m, max(answers)) <= OFF_FORM_BUDGET)
        # every jump lands on the radius of the form held, and no member of
        # a shell below it is off that form
        skips = set()
        for run in runs:
            walked = [e[1] for e in run if e[0] == "shell"]
            for d, nxt in zip(walked, walked[1:]):
                if nxt > d + 1:
                    last = run[:run.index(("shell", nxt))]
                    assert [e[2] for e in last if e[0] == "skip"][-1] == nxt, (system, run)
            skips.update((e[1], e[2]) for e in run if e[0] == "skip")
        shells = [filtered_shell(L, d, "all") for d in range(max((r for _, r in skips), default=0))]
        for f, r in skips:
            assert not any(sum(map(mul, f, v)) for shell in shells[:r] for v in shell), \
                (system, f, r)
        # each search against its whole-shell reference, with the cap just
        # below, at and without its last skip radius (its answer if none)
        for (fast, slow, outcome), run, answer in zip(self.SEARCHES, runs, answers):
            r = ([e[2] for e in run if e[0] == "skip"] or [answer])[-1]
            cap = data.draw(st.sampled_from((r - 1, r, None)), label=f"{fast.__name__} cap")
            assert outcome(fast, L, cap) == outcome(slow, L, cap), (system, cap)
        # the box oracle re-enumerates the ball at every radius: small cases
        if sum((2 * d + 1) ** m for d in range(1, answers[2] + 1)) <= 5_000:
            assert list(successive_minima(L).values) == oracles.oracle_minima(system)


@pytest.mark.parametrize("spec", [SharpCaseSpec(23, 6), SharpCaseSpec(101, 4)], ids=str)
def test_minima_pull_what_bfieldr_pulls(monkeypatch, spec):
    # timing-free work gate: successive_minima reads the rank-raising adds
    # of bfieldr's walk, so it pulls the members bfieldr pulls, in order, up
    # to the m-th rank-raising add, and stops there
    L = from_congruences(sharp_case_lattice(spec))
    pulled = []
    walker = degree_bounds.shell_walker

    def counting(L, mode):
        walk = walker(L, mode)

        def counted(d, *form):
            for v in walk(d, *form):
                pulled.append(v)
                yield v
        return counted

    monkeypatch.setattr(degree_bounds, "shell_walker", counting)
    report = bfieldr(L)
    by_bfieldr = list(pulled)
    acc, raised = GeneratedLattice(L.dimension), []
    for v in report.witnesses:
        rank = acc.rank
        acc.add(v)
        if acc.rank > rank:
            raised.append(v)
    pulled.clear()
    sm = successive_minima(L)
    assert sm.witnesses == tuple(raised)
    assert pulled == by_bfieldr[:by_bfieldr.index(raised[-1]) + 1]


class TestMinkowski:
    def test_tight_example(self):
        chk = minkowski_check(kernel(5, (1, 4)))
        assert chk.product == 10 and chk.bound == 10 and chk.ok

    def test_identity(self):
        chk = minkowski_check(LatticeBasis.identity(2))
        assert chk.product == 1 and chk.bound == 2 and chk.ok

    def test_accepts_precomputed_minima(self):
        L = kernel(7, (1, 2))
        sm = successive_minima(L)
        assert minkowski_check(L, sm).ok

    def test_sweep(self):
        for system in random_congruence_systems(40, seed=33, n_max=30):
            L = from_congruences(system)
            chk = minkowski_check(L)
            assert chk.ok
            assert chk.bound == factorial(L.dimension) * L.index


class TestMahlerBasis:
    def test_mod5_example(self):
        mb = mahler_basis(kernel(5, (1, 4)))
        assert abs(mb.vectors[0][0]) == 1 and abs(mb.vectors[0][1]) == 1
        assert mb.norms[0] == 2
        assert mb.norms[1] <= 2 * 5
        assert det_of(mb.vectors) == 5

    def test_identity(self):
        mb = mahler_basis(LatticeBasis.identity(3))
        assert set(mb.vectors) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_mod7_lambda1(self):
        mb = mahler_basis(kernel(7, (1, 2)))
        assert mb.vectors[0] in ((-2, 1), (2, -1))
        assert mb.norms[0] == 3

    def test_norm_bounds_and_det(self):
        for system in random_congruence_systems(40, seed=34, n_max=30):
            L = from_congruences(system)
            mb = mahler_basis(L)
            assert det_of(mb.vectors) == L.index
            for i, (v, nrm) in enumerate(zip(mb.vectors, mb.norms), start=1):
                assert v in L
                assert l1norm(v) == nrm
                assert nrm <= i * mb.minima.values[i - 1]


class TestDeterminantForm:
    def test_small_examples(self):
        assert determinant_form([(1, 1)]).coefficients == (-1, 1)
        assert determinant_form([(2, -1)]).coefficients == (1, 2)
        assert determinant_form([(1, 0, 0), (0, 1, 0)]).coefficients == (0, 0, 1)

    def test_apply_matches_direct_determinant(self):
        rng = random.Random(35)
        for _ in range(25):
            m = rng.choice((2, 3, 4))
            while True:
                vecs = [tuple(rng.randint(-4, 4) for _ in range(m))
                        for _ in range(m - 1)]
                if oracles.rank_of(vecs) == m - 1:
                    break
            form = determinant_form(vecs)
            for _ in range(10):
                w = tuple(rng.randint(-6, 6) for _ in range(m))
                direct = det_of(list(vecs) + [w])
                assert form.apply(w) == direct
            for v in vecs:
                assert form.apply(v) == 0

    def test_dependent_input(self):
        with pytest.raises(DependentInputError):
            determinant_form([(1, 1, 0), (2, 2, 0)])

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_laplace_expansion(self, data):
        # the fold and det_fraction against cofactor expansion: equal values
        # on every w, and a dependent verdict exactly on rank-deficient input
        m = data.draw(st.integers(1, 6), label="m")
        entry = st.integers(-4, 4)
        vecs = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                  min_size=m - 1, max_size=m - 1), label="vecs")
        if m >= 3 and data.draw(st.booleans(), label="dependent"):
            mult = data.draw(st.lists(st.integers(-2, 2), min_size=m - 2, max_size=m - 2))
            vecs[-1] = [sum(a * v[r] for a, v in zip(mult, vecs)) for r in range(m)]
        w = data.draw(st.lists(entry, min_size=m, max_size=m), label="w")
        if oracles.rank_of(vecs) < m - 1:
            with pytest.raises(DependentInputError, match="linearly dependent"):
                determinant_form(vecs, m)
        else:
            det = oracles.det_laplace(vecs + [w])
            assert determinant_form(vecs, m).apply(w) == det
            assert oracles.det_fraction(vecs + [w]) == det

    def test_matches_fraction_elimination_past_laplace_range(self):
        # m = 7..12, beyond det_laplace's m! terms, with entries up to 10^9
        # and every fifth set at 30 digits; odd sets are sparse, so that
        # folds end on a negative pivot and negate their row.  The form
        # against a Fraction elimination on several w, and a dependent
        # verdict on rank-deficient sets and on each set with one vector
        # replaced by a combination of the others
        rng = random.Random(28)
        for trial in range(40):
            m = rng.randint(7, 12)
            bound = 10 ** 30 if trial % 5 == 0 else 10 ** 9
            keep = 0.3 if trial % 2 else 1.0
            vecs = [[rng.randint(-bound, bound) if rng.random() < keep else 0
                     for _ in range(m)] for _ in range(m - 1)]
            if oracles.rank_of(vecs) == m - 1:
                form = determinant_form(vecs, m)
                for _ in range(3):
                    w = [rng.randint(-bound, bound) for _ in range(m)]
                    assert form.apply(w) == oracles.det_fraction(vecs + [w])
                j = rng.randrange(m - 1)
                mult = [rng.randint(-3, 3) for _ in range(m - 1)]
                vecs[j] = [sum(a * v[r] for k, (a, v) in enumerate(zip(mult, vecs)) if k != j)
                           for r in range(m)]
            with pytest.raises(DependentInputError, match="linearly dependent"):
                determinant_form(vecs, m)


class TestCompleteBasisShort:
    def test_mod7_worked_example(self):
        L = kernel(7, (1, 2))
        comp = complete_basis_short(L, [(2, -1)])
        assert comp.bstar == (-1, 4)
        assert comp.dstar == 2
        assert comp.form.coefficients == (1, 2)
        assert comp.norm_bound == Fraction(7, 2) + 3
        assert l1norm(comp.bstar) == 5 <= comp.norm_bound
        assert det_of([(2, -1), comp.bstar]) == 7
        assert not comp.dstar_at_least_index

    def test_mod7_tie_example(self):
        L = kernel(7, (1, 6))
        comp = complete_basis_short(L, [(1, 1)])
        assert comp.bstar == (-7, 0)
        assert comp.form.coefficients == (-1, 1)
        assert comp.dstar == -1
        assert det_of([(1, 1), comp.bstar]) == 7

    def test_identity_example(self):
        comp = complete_basis_short(LatticeBasis.identity(2), [(1, 0)])
        assert comp.form.coefficients == (0, 1)
        assert comp.bstar == (0, 1)

    def test_prime_sample_properties(self):
        systems = [s for s in random_congruence_systems(60, seed=36, n_max=40)
                   if oracles.subgroup_order(s) > 1][:40]
        for system in systems:
            L = from_congruences(system)
            mb = mahler_basis(L)
            short = list(mb.vectors[:-1])
            comp = complete_basis_short(L, short)
            assert comp.form.apply(comp.bstar) == L.index
            assert det_of(short + [comp.bstar]) in (L.index, -L.index)
            assert l1norm(comp.bstar) <= comp.norm_bound
            assert comp.norm_bound == \
                Fraction(L.index, abs(comp.dstar)) + sum(map(l1norm, short))


class TestGenDegBasis:
    def test_mod5_example(self):
        gd = gen_deg_basis(kernel(5, (1, 4)))
        assert gd.max_norm == 5
        assert gd.bound == 5
        assert gd.within_bound

    def test_mod7_example(self):
        gd = gen_deg_basis(kernel(7, (1, 2)))
        assert set(map(l1norm, gd.vectors)) == {3, 5}
        assert gd.max_norm == 5
        assert gd.bound == 7
        assert gd.within_bound
        assert det_of(gd.vectors) == 7

    def test_m3_pipeline(self):
        L = kernel(7, (1, 2, 4))
        gd = gen_deg_basis(L)
        assert gd.bound == 4
        assert det_of(gd.vectors) == 7
        assert all(v in L for v in gd.vectors)

    def test_basis_property_on_sample(self):
        for system in random_congruence_systems(30, seed=37, n_max=25):
            L = from_congruences(system)
            gd = gen_deg_basis(L)
            assert det_of(gd.vectors) == L.index
            assert gd.max_norm == max(gd.norms)
            assert gd.within_bound == (gd.max_norm <= gd.bound)


def gen_deg_reference(L):
    """gen_deg_basis by its definition: the first m - 1 vectors of the full
    Mahler basis, completed by b*."""
    short = list(mahler_basis(L).vectors[:L.dimension - 1])
    comp = complete_basis_short(L, short)
    return tuple(short) + (comp.bstar,), comp


class TestGenDegBasisShortWalk:
    """gen_deg_basis refines only the first m - 1 minima, so it stops its
    walk at lambda_{m-1}; its output must be the full refinement's prefix."""

    @pytest.mark.parametrize("p", [p for p in range(3, 32) if is_prime(p)])
    def test_matches_full_refinement_on_sharp_cases(self, p):
        for m in range(1, min(p, 7)):
            L = from_congruences(sharp_case_lattice(SharpCaseSpec(p, m)))
            gd = gen_deg_basis(L)
            assert (gd.vectors, gd.completion) == gen_deg_reference(L), (p, m)

    def test_matches_full_refinement_on_drawn_lattices(self):
        for system in random_congruence_systems(150, seed=41, m_choices=(2, 3, 4, 5, 6),
                                                n_max=45):
            L = from_congruences(system)
            gd = gen_deg_basis(L)
            assert (gd.vectors, gd.completion) == gen_deg_reference(L), system

    @pytest.mark.parametrize("p", [23, 53])
    def test_walks_no_shell_beyond_second_last_minimum(self, monkeypatch, p):
        # timing-free work gate: the minima still walk to lambda_m, the
        # basis no further than lambda_{m-1}, which is below it here
        L = from_congruences(sharp_case_lattice(SharpCaseSpec(p, 6)))
        radii = []
        walker = degree_bounds.shell_walker

        def recording(L, mode):
            walk = walker(L, mode)

            def walk_recording(radius, *form):
                radii.append(radius)
                return walk(radius, *form)
            return walk_recording

        monkeypatch.setattr(degree_bounds, "shell_walker", recording)
        lam = successive_minima(L).values
        assert max(radii) == lam[-1]
        radii.clear()
        gen_deg_basis(L)
        assert max(radii) == lam[-2] < lam[-1]

    def test_vectors_that_do_not_extend_are_internal(self, monkeypatch):
        # refined vectors whose determinant form has gcd over L a proper
        # multiple of the index do not extend to a basis: a construction
        # bug, not bad input (a zero form is covered through the CLI)
        real = geomnum.determinant_form

        def doubled(vectors, dimension):
            return geomnum.DeterminantForm(
                tuple(2 * c for c in real(vectors, dimension).coefficients))

        monkeypatch.setattr(geomnum, "determinant_form", doubled)
        with pytest.raises(InternalError, match="do not form a basis"):
            gen_deg_basis(kernel(7, (1, 2, 4)))


class TestRefinementInvariants:
    """Both mahler_basis and gen_deg_basis run every refinement check."""

    def test_norm_ceiling_is_checked_on_both(self, monkeypatch):
        # minima reported as 1 make the refined norms break i * lambda_i
        real = geomnum._generation_search
        monkeypatch.setattr(geomnum, "_generation_search", lambda *args: (
            (1, w, raised) for _, w, raised in real(*args)))
        L = from_congruences(sharp_case_lattice(SharpCaseSpec(7, 3)))
        for build in (gen_deg_basis, mahler_basis):
            with pytest.raises(InternalError, match=r"norm 2 > 1 \* minimum 1"):
                build(L)


def rows_mod(moduli, m, count, seed):
    """count systems of one row per modulus in dimension m, rows drawn
    from Random(seed)."""
    rng = random.Random(seed)
    return [CongruenceSystem(moduli, tuple(tuple(rng.randrange(n) for _ in range(m))
                                           for n in moduli))
            for _ in range(count)]


REFINEMENT_FAMILIES = {
    "drawn": lambda: random_congruence_systems(160, seed=17, m_choices=(2, 3, 4, 5, 6),
                                               n_max=60),
    "sharp": lambda: [sharp_case_lattice(SharpCaseSpec(p, m, miss))
                      for p in range(3, 32) if is_prime(p) for m in range(1, min(p, 7))
                      for miss in ([None] if m % 2 == 0 else [1, -1])],
    "row-23-6": lambda: rows_mod((23,), 6, 60, 1),
    "row-31-5": lambda: rows_mod((31,), 5, 80, 2),
    "row-29-4": lambda: rows_mod((29,), 4, 100, 3),
    "two-rows-12-10": lambda: rows_mod((12, 10), 4, 60, 4),
}


# Both trees walk the minima, whose cost grows with lambda_m: on moduli
# (16, 11) in m = 5 a walk to radius 20 takes 0.13 s, the walk to
# lambda_5 = 44 2.6 s (2-core VM, Python 3.11).  Draws with lambda_m above
# this cap (a sixth to a fifth of hypothesis's draws) are rejected, so no
# draw walks far.
WALK_RADIUS_CAP = 20


def draw_walkable_lattice(data):
    """The lattice of a drawn one- or two-row system, moduli <= 30, m <= 5,
    whose minima all lie within WALK_RADIUS_CAP."""
    moduli = tuple(data.draw(st.lists(st.integers(2, 30), min_size=1, max_size=2),
                             label="moduli"))
    m = data.draw(st.integers(1, 5), label="m")
    rows = tuple(data.draw(st.tuples(*[st.integers(0, n - 1)] * m), label=f"row mod {n}")
                 for n in moduli)
    L = from_congruences(CongruenceSystem(moduli, rows))
    try:
        successive_minima(L, cap=WALK_RADIUS_CAP)
    except CapExceededError:
        assume(False)
    return L


class TestRefinementAgainstReference:
    """The unimodular refinement yields exactly what rebuilding the basis
    from kernels and rational solves at every minimum yields."""

    @pytest.mark.parametrize("family", sorted(REFINEMENT_FAMILIES))
    def test_case_families(self, family):
        mismatches = [system for system in REFINEMENT_FAMILIES[family]()
                      if list(geomnum._refined(L := from_congruences(system)))
                      != list(oracles.refined_reference(L))]
        assert mismatches == []

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_drawn_one_and_two_row_systems(self, data):
        L = draw_walkable_lattice(data)
        assert list(geomnum._refined(L)) == list(oracles.refined_reference(L))


def span_form_successive_minima(L, cap=None):
    """successive_minima over the span-form reference walk."""
    if cap is None:
        cap = L.index
    minima = itertools.islice(oracles.span_form_minima(L, cap), L.dimension)
    values, witnesses = zip(*minima)
    return SuccessiveMinima(values, witnesses)


class TestMinimaAgainstSpanFormReference:
    """successive_minima, which reads the rank-raising adds of the bfieldr
    walk, against the span-form walk it replaced; and the bases refined from
    the one against the bases refined from the other."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_drawn_lattices(self, data):
        kind = data.draw(st.sampled_from(("one row", "two rows", "bare basis")), label="kind")
        m = data.draw(st.integers(1, 5), label="m")
        if kind == "bare basis":
            gens = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                                      min_size=m, max_size=m), label="generators")
            try:
                L = LatticeBasis.from_generators(gens, m)
            except ValueError:
                assume(False)
        else:
            k = 1 if kind == "one row" else 2
            moduli = tuple(data.draw(st.lists(st.integers(2, 30), min_size=k, max_size=k),
                                     label="moduli"))
            rows = tuple(data.draw(st.tuples(*[st.integers(0, n - 1)] * m),
                                   label=f"row mod {n}") for n in moduli)
            L = from_congruences(CongruenceSystem(moduli, rows))
        reference = minima_outcome(span_form_successive_minima, L, WALK_RADIUS_CAP)
        assume(isinstance(reference, SuccessiveMinima))
        last = reference.values[-1]
        cap = data.draw(st.sampled_from((None, 0, 1, last - 1, last)), label="cap")
        assert minima_outcome(successive_minima, L, cap) == \
            minima_outcome(span_form_successive_minima, L, cap), (L, cap)
        got = mahler_basis(L).vectors, gen_deg_basis(L).vectors
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geomnum, "_generation_search", lambda L, mode, which, cap: (
                (d, w, True) for d, w in oracles.span_form_minima(L, cap)))
            assert got == (mahler_basis(L).vectors, gen_deg_basis(L).vectors), L


def completion_inputs(L):
    """(vectors, expected outcome or None) for complete_basis_short on L:
    the first m - 1 refined vectors, the first m - 1 minima witnesses, and,
    built from the refined vectors, a wrong count, a doubled b_1, a zero
    b_1 (dependent) and a b_1 outside L."""
    m = L.dimension
    steps = list(itertools.islice(geomnum._refined(L), m - 1))
    refined = [b for _, _, b in steps]
    yield refined, geomnum.BasisCompletion
    yield [w for _, w, _ in steps], None
    yield refined + [(0,) * m], ValueError
    if m < 2:
        return
    yield [tuple(2 * t for t in refined[0])] + refined[1:], NoSolutionError
    yield [(0,) * m] + refined[1:], DependentInputError
    outside = next((e for e in (tuple(int(j == k) for j in range(m)) for k in range(m))
                    if e not in L), None)
    if outside is not None:
        yield [outside] + refined[1:], NoSolutionError


def completion_outcome(complete, L, vectors):
    try:
        return complete(L, vectors)
    except (ValueError, InternalError) as exc:
        return type(exc)


def completion_mismatches(L):
    """The inputs of completion_inputs(L) on which complete_basis_short and
    completion_reference disagree, in value or exception type, or give an
    outcome other than the expected one."""
    out = []
    for vectors, expected in completion_inputs(L):
        got = completion_outcome(complete_basis_short, L, vectors)
        ref = completion_outcome(oracles.completion_reference, L, vectors)
        kind = got if isinstance(got, type) else type(got)
        if got != ref or expected not in (None, kind):
            out.append((vectors, got, ref))
    return out


class TestCompletionAgainstReference:
    """The completion by fractional parts over the folded inverse rows gives
    what the base point plus rational coordinates gives, and raises what it
    raises."""

    @pytest.mark.parametrize("family", sorted(REFINEMENT_FAMILIES))
    def test_case_families(self, family):
        mismatches = [(system, bad) for system in REFINEMENT_FAMILIES[family]()
                      if (bad := completion_mismatches(from_congruences(system)))]
        assert mismatches == []

    def test_bare_bases(self):
        rng = random.Random(5)
        for _ in range(60):
            m = rng.randint(1, 4)
            vectors = [tuple(rng.randint(-6, 6) for _ in range(m)) for _ in range(m)]
            if det_of(vectors) == 0:
                continue
            assert completion_mismatches(LatticeBasis.from_generators(vectors, m)) == []

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_drawn_one_and_two_row_systems(self, data):
        assert completion_mismatches(draw_walkable_lattice(data)) == []


class TestRefinementWork:
    """Timing-free work gate: neither the refinement nor the completion runs
    a kernel or a solve; each basis takes one determinant form, folded
    like them on the inverse rows (_fold)."""

    @pytest.mark.parametrize("system", [
        sharp_case_lattice(SharpCaseSpec(53, 6)),
        CongruenceSystem((12, 10), ((1, 5, 7, 11, 2), (3, 1, 4, 1, 5))),
    ], ids=["sharp-53-6", "two-rows"])
    def test_kernel_and_solve_counts(self, monkeypatch, system):
        L = from_congruences(system)
        calls = Counter()

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for module in (geomnum, lattice_core):
            for name in ("integer_kernel", "determinant_form"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        gen_deg_basis(L)
        assert dict(calls) == {"determinant_form": 1}
        calls.clear()
        mahler_basis(L)
        assert dict(calls) == {"determinant_form": 1}


class TestEffectiveMinimaBounds:
    def test_perfect_square(self):
        bounds = effective_minima_bounds(2, 2)
        assert bounds == (Fraction(2),)

    def test_m2_p5(self):
        (b1,) = effective_minima_bounds(2, 5)
        # outward enclosure of sqrt(10)
        assert b1 * b1 >= 10
        assert (b1 - Fraction(1, 10**6)) ** 2 < 10
        mb = mahler_basis(kernel(5, (1, 4)))
        assert mb.norms[0] <= b1

    def test_m3_p11(self):
        b1, b2 = effective_minima_bounds(3, 11)
        assert b1 ** 3 >= 66
        assert (b1 - Fraction(1, 10**6)) ** 3 < 66
        half = b2 / 2
        assert half ** 2 >= 33
        assert (half - Fraction(1, 10**6)) ** 2 < 33

    def test_domination_on_prime_sample(self):
        systems = random_congruence_systems(25, seed=38, n_max=40, prime_only=True)
        for system in systems:
            L = from_congruences(system)
            if L.dimension < 2:
                continue
            mb = mahler_basis(L)
            bounds = effective_minima_bounds(L.dimension, L.index)
            for nrm, bound in zip(mb.norms, bounds):
                assert Fraction(nrm) <= bound

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError):
            effective_minima_bounds(1, 5)

    @pytest.mark.parametrize("index", [0, -5])
    def test_rejects_nonpositive_index(self, index):
        with pytest.raises(ValueError, match="index must be positive"):
            effective_minima_bounds(3, index)


class TestDualPairLift:
    def test_single_vector_example(self):
        L = kernel(5, (1, 4))
        lifted = dual_pair_lift(L, [(0, 1)], [(2, -3), (0, 5)])
        assert (5, 0) in lifted
        assert (1, 1) in lifted
        assert all(min(v) >= 0 for v in lifted)

    def test_nonnegative_untouched(self):
        L = kernel(5, (1, 4))
        lifted = dual_pair_lift(L, [(0, 1)], [(1, 1), (5, 0)])
        assert (1, 1) in lifted and (5, 0) in lifted

    def test_m4_gen_deg_composition(self):
        L = kernel(5, (1, 2, 3, 4))
        gd = gen_deg_basis(L)
        lifted = dual_pair_lift(L, [(0, 3), (1, 2)], gd.vectors)
        assert all(min(v) >= 0 for v in lifted)
        assert is_generating(L, lifted)
        assert max(map(l1norm, lifted)) <= max(gd.max_norm, 2)

    def test_norm_nonincreasing(self):
        L = kernel(5, (1, 2, 3, 4))
        inputs = list(L.columns)
        lifted = dual_pair_lift(L, [(0, 3), (1, 2)], inputs)
        # the first len(inputs) entries are the lifts, in input order
        for a, b in zip(inputs, lifted):
            assert min(b) >= 0
            assert l1norm(b) <= l1norm(a)

    def test_error_cases(self):
        L = kernel(5, (1, 4))
        with pytest.raises(ValueError):
            dual_pair_lift(L, [(0, 0)], [(1, 1)])  # not a partition
        with pytest.raises(ValueError):
            dual_pair_lift(kernel(5, (1, 2)), [(0, 1)], [(1, 2)])  # pair sum not in L
        with pytest.raises(ValueError):
            dual_pair_lift(L, [(0, 1)], [(1, 1)])  # does not generate
