import json
import random
from functools import partial
from itertools import islice
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from invlat import ball_enum, degree_bounds, lattice_core
from invlat.ball_enum import shell_points, shell_walker
from invlat.constructions import SharpCaseSpec, sharp_case_lattice
from invlat.degree_bounds import (
    CapExceededError,
    DegreeBoundReport,
    bfield,
    bfieldr,
    dspan,
    verify_bound_relations,
)
from invlat.lattice_core import (
    CongruenceSystem,
    GeneratedLattice,
    LatticeBasis,
    from_congruences,
    is_generating,
    l1norm,
)

import oracles
from oracles import lattice_shell_points


def kernel(n, row):
    return from_congruences(CongruenceSystem((n,), (tuple(row),)))


def shell_dspan(L, label, cap=None):
    """Reference dspan: every nonnegative point, shell by shell in lex order,
    keyed by label(point), which must name its coset; the first point seen
    in a coset is its witness."""
    if cap is None:
        cap = L.index - 1
    target = L.index
    seen = {}
    for d in range(cap + 1):
        for v in shell_points(L.dimension, d, "nonnegative"):
            key = label(v)
            if key not in seen:
                seen[key] = v
        if len(seen) == target:
            return DegreeBoundReport("dspan", d, seen, L.index, cap)
    raise CapExceededError("dspan", cap)


def shell_generation_search(L, mode, which, cap=None, walk=lattice_shell_points):
    """Reference bfield/bfieldr: every member of each whole shell, in mode
    "nonnegative" or "all", offered to a GeneratedLattice; the completion
    test runs once per shell."""
    if cap is None:
        cap = L.index
    acc = GeneratedLattice(L.dimension)
    witnesses = []
    for d in range(cap + 1):
        for v in walk(L, d, mode):
            if v not in acc:
                acc.add(v)
                witnesses.append(v)
        if acc.rank == L.dimension and acc.index == L.index:
            return DegreeBoundReport(which, d, tuple(witnesses), L.index, cap)
    raise CapExceededError(which, cap)


def generation_outcome(search, L, cap):
    """Everything a bfield/bfieldr call shows: the full report or the cap
    error."""
    try:
        rep = search(L, cap=cap)
    except CapExceededError as exc:
        return ("cap", exc.which, exc.cap)
    return (rep.which, rep.value, rep.index, rep.search_cap, rep.witnesses)


def sharp(p, m):
    return from_congruences(sharp_case_lattice(SharpCaseSpec(p, m)))


def outcome(search, L, cap, keyed=True):
    """Everything a dspan call shows: the full report with its witness dict
    in order (only its vectors unless keyed), or the cap error."""
    try:
        rep = search(L, cap=cap)
    except CapExceededError as exc:
        return ("cap", exc.which, exc.cap)
    wit = rep.witnesses.items() if keyed else rep.witnesses.values()
    return (rep.which, rep.value, rep.index, rep.search_cap, list(wit))


def system_shell_dspan(system):
    """shell_dspan keyed by the congruence label of the oracle."""
    return partial(shell_dspan, label=partial(oracles.label, system))


def seeded_systems(count, seed):
    """Systems with m in 1..5 and one or two rows of small moduli."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        m = rng.randint(1, 5)
        moduli = tuple(rng.randint(2, 13) for _ in range(rng.randint(1, 2)))
        rows = tuple(tuple(rng.randrange(n) for _ in range(m)) for n in moduli)
        systems.append(CongruenceSystem(moduli, rows))
    return systems


def seeded_bases(count, seed):
    """Bare full-rank bases from random generators, m in 1..4."""
    rng = random.Random(seed)
    bases = []
    while len(bases) < count:
        m = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(m)]
        try:
            L = LatticeBasis.from_generators(gens, m)
        except ValueError:
            continue
        if 2 <= L.index <= 80:
            bases.append(L)
    return bases


CAPS = (None, 0, 1, 2, 3, 4, 5, 6)


class TestDspan:
    def test_mod4_example(self):
        rep = dspan(kernel(4, (1, 3)))
        assert rep.value == 2
        # lex-least minimal representatives; label 2 is represented by (0,2)
        assert set(rep.witnesses.values()) == {(0, 0), (0, 1), (0, 2), (1, 0)}
        assert len(rep.witnesses) == 4
        assert max(l1norm(v) for v in rep.witnesses.values()) == 2

    def test_mod4_second_family(self):
        assert dspan(kernel(4, (1, 2))).value == 2

    def test_identity(self):
        rep = dspan(LatticeBasis.identity(3))
        assert rep.value == 0
        assert list(rep.witnesses.values()) == [(0, 0, 0)]

    def test_witnesses_are_minimal_reps(self):
        rng = random.Random(21)
        for _ in range(15):
            m = rng.choice((2, 3))
            n = rng.randint(m + 1, 14)
            system = CongruenceSystem((n,), (tuple(rng.sample(range(1, n), m)),))
            L = from_congruences(system)
            rep = dspan(L)
            assert len(rep.witnesses) == L.index
            best = {}
            for p in oracles.nonneg_points(m, rep.value):
                key = oracles.label(system, p)
                cand = (l1norm(p), p)
                if key not in best or cand < best[key]:
                    best[key] = cand
            for key, w in rep.witnesses.items():
                assert best[key][1] == w

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError) as exc:
            dspan(kernel(4, (1, 3)), cap=1)
        assert exc.value.which == "dspan"
        assert exc.value.cap == 1

    def test_negative_cap_raises(self):
        # dspan >= 0 lies above any negative cap, even on a lattice of index 1
        for L in (LatticeBasis.identity(3), kernel(4, (1, 3))):
            for cap in (-1, -3):
                with pytest.raises(CapExceededError) as exc:
                    dspan(L, cap=cap)
                assert (exc.value.which, exc.value.cap) == ("dspan", cap)

    def test_against_oracle(self):
        rng = random.Random(22)
        for _ in range(30):
            m = rng.choice((2, 3))
            n = rng.randint(m + 1, 16)
            system = CongruenceSystem((n,), (tuple(rng.sample(range(1, n), m)),))
            assert dspan(from_congruences(system)).value == oracles.oracle_dspan(system)

    def test_label_keyed_witnesses_match_oracle(self):
        # the CLI's label-keyed dict, in order, against brute force
        for system in seeded_systems(80, 26):
            rep = dspan(from_congruences(system))
            expected = {",".join(map(str, lab)): list(p)
                        for lab, p in oracles.dspan_witnesses(system).items()}
            assert list(json.loads(rep.to_json())["witnesses"].items()) == \
                list(expected.items())


class TestDspanAgainstShellSearch:
    def test_seeded_systems(self):
        for system in seeded_systems(220, 27):
            L = from_congruences(system)
            shell = system_shell_dspan(system)
            for cap in CAPS:
                assert outcome(dspan, L, cap) == outcome(shell, L, cap), (system, cap)

    def test_bare_bases(self):
        # no label independent of the presentation: the witness vectors in
        # order, from a search keyed by box residues
        for L in seeded_bases(80, 28):
            shell = partial(shell_dspan, label=L.reduce)
            for cap in CAPS:
                assert outcome(dspan, L, cap, keyed=False) == \
                    outcome(shell, L, cap, keyed=False), (L, cap)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_property(self, data):
        m = data.draw(st.integers(1, 5), label="m")
        r = data.draw(st.integers(1, 3), label="rows")
        moduli = tuple(data.draw(st.lists(st.integers(2, 12), min_size=r, max_size=r),
                                 label="moduli"))
        rows = tuple(
            tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
                            label="row"))
            for n in moduli)
        cap = data.draw(st.one_of(st.none(), st.integers(-2, 8)), label="cap")
        system = CongruenceSystem(moduli, rows)
        L = from_congruences(system)
        assert outcome(dspan, L, cap) == outcome(system_shell_dspan(system), L, cap)

    @pytest.mark.parametrize("n, row", [(1399, (1, 1398)), (401, (1, 400, 2))])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_steps_by_label_without_reducing(self, monkeypatch, n, row, copies):
        # timing-free work gate: the shell search made about 245,000
        # reductions on the first lattice, and a BFS keyed by box residues
        # up to m * index; stepping by label makes none, on integer labels
        # (one modulus) or on label tuples (the row repeated), in one loop
        L = from_congruences(CongruenceSystem((n,) * copies, (row,) * copies))
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for target, name in ((LatticeBasis, "reduce"), (LatticeBasis, "__contains__"),
                             (lattice_core, "triangular_reduce"),
                             (degree_bounds, "_label_bfs")):
            monkeypatch.setattr(target, name, counting(name, getattr(target, name)))
        rep = dspan(L)
        assert calls == ["_label_bfs"]
        assert len(rep.witnesses) == L.index

    def test_label_steps_do_not_depend_on_the_presentation(self, monkeypatch):
        # timing-free work gate: each item of a layer prefix is one label
        # step, and a witness w steps only along e_i for i <= first(w), on
        # integer labels and label tuples alike; stepping every witness
        # along every e_i would make m * index
        steps = []

        def counting(layer, stop):
            for item in islice(layer, stop):
                steps[-1] += 1
                yield item

        monkeypatch.setattr(degree_bounds, "islice", counting)
        for copies in (1, 2):
            L = from_congruences(CongruenceSystem((1399,) * copies, ((1, 1398),) * copies))
            steps.append(0)
            assert len(dspan(L).witnesses) == L.index == 1399
        assert steps[0] == steps[1] < 1.5 * L.index


def repeated_row(system):
    """The lattice of a one-row system, presented by its row repeated mod n."""
    return from_congruences(CongruenceSystem(system.moduli * 2, system.coefficients * 2))


def seeded_rows(count, seed):
    """One-row systems with m in 1..5 and moduli up to 40, some rows with
    zero coefficients or a common factor with n."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(2, 40)
        g = rng.choice((1, 1, 2, 3))
        row = tuple(rng.choice((0, g * rng.randrange(n))) % n for _ in range(m))
        systems.append(CongruenceSystem((n,), (row,)))
    return systems


class TestOneModulusAgainstTuplePath:
    """The two label steps of dspan's one loop, on integer labels (one
    modulus) and on label tuples (the same row given twice), give one
    value, the same witnesses in the same order, and the same cap errors;
    the tuple keys are the integer labels repeated."""

    @staticmethod
    def agreed_outcome(system, cap):
        one, two = from_congruences(system), repeated_row(system)
        assert one == two and len(two.presentation[1]) == 2
        got, ref = outcome(dspan, one, cap), outcome(dspan, two, cap)
        if got[0] == "cap":
            assert got == ref, (system, cap)
        else:
            assert got[:4] == ref[:4], (system, cap)
            assert [(k * 2, w) for k, w in got[4]] == ref[4], (system, cap)
        return got

    @pytest.mark.parametrize("n, row, cap, value", [
        (12, (4, 6, 2), None, 2),       # gcd(row, n) = 2: index 6
        (30, (6, 10, 15), None, 7),     # gcd 1 overall, each entry shares one with n
        (7, (1, 0, 3), None, 3),        # a zero coefficient
        (9, (0, 3, 0, 6), None, 1),     # zeros and gcd 3: index 3
        (5, (0, 0), None, 0),           # index 1
        (2, (0,), 4, 0),
        (10, (1, 9), 2, "cap"),         # the cap is hit: dspan is 5
        (10, (1, 9), 4, "cap"),
        (10, (1, 9), 5, 5),
        (13, (0, 0, 0), -1, "cap"),     # a negative cap, even at index 1
    ])
    def test_cases(self, n, row, cap, value):
        got = self.agreed_outcome(CongruenceSystem((n,), (row,)), cap)
        assert got[:2] == (("cap", "dspan") if value == "cap" else ("dspan", value))

    def test_seeded_rows(self):
        for system in seeded_rows(200, 41):
            for cap in CAPS:
                self.agreed_outcome(system, cap)


class TestBfield:
    def test_mod5_example(self):
        rep = bfield(kernel(5, (1, 4)))
        assert rep.value == 5
        assert is_generating(kernel(5, (1, 4)), rep.witnesses)
        assert all(l1norm(v) <= 5 for v in rep.witnesses)

    def test_mod4_example(self):
        assert bfield(kernel(4, (1, 3))).value == 4

    def test_identity(self):
        rep = bfield(LatticeBasis.identity(2))
        assert rep.value == 1
        assert set(rep.witnesses) == {(0, 1), (1, 0)}

    def test_against_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            m = 2
            n = rng.randint(3, 14)
            system = CongruenceSystem((n,), (tuple(rng.sample(range(1, n), m)),))
            assert bfield(from_congruences(system)).value == \
                oracles.oracle_generation(system, "nonneg")

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            bfield(kernel(5, (1, 4)), cap=4)


class TestBfieldr:
    def test_examples(self):
        assert bfieldr(kernel(5, (1, 4))).value == 5
        assert bfieldr(kernel(7, (1, 2))).value == 4
        assert bfieldr(LatticeBasis.identity(2)).value == 1

    def test_against_oracle(self):
        rng = random.Random(24)
        for _ in range(20):
            m = 2
            n = rng.randint(3, 14)
            system = CongruenceSystem((n,), (tuple(rng.sample(range(1, n), m)),))
            assert bfieldr(from_congruences(system)).value == \
                oracles.oracle_generation(system, "all")

    def test_never_exceeds_bfield(self):
        rng = random.Random(25)
        for _ in range(15):
            m = rng.choice((2, 3))
            n = rng.randint(m + 1, 12)
            system = CongruenceSystem((n,), (tuple(rng.sample(range(1, n), m)),))
            L = from_congruences(system)
            assert bfieldr(L).value <= bfield(L).value


class TestAgainstShellSearch:
    """bfieldr walks half of each shell and bfield stops mid-shell; both
    must report exactly what the whole-shell search reports."""

    REFERENCES = (
        (bfieldr, partial(shell_generation_search, mode="all", which="bfieldr")),
        (bfield, partial(shell_generation_search, mode="nonnegative", which="bfield")),
    )

    def test_seeded_systems(self):
        for i, system in enumerate(seeded_systems(200, 45)):
            L = from_congruences(system)
            cap = CAPS[i % len(CAPS)]
            for fast, slow in self.REFERENCES:
                assert generation_outcome(fast, L, cap) == \
                    generation_outcome(slow, L, cap), (system, cap)

    @pytest.mark.parametrize("p, m", [(31, 4), (23, 6)])
    def test_sharp_cases(self, p, m):
        L = sharp(p, m)
        for fast, slow in self.REFERENCES:
            assert generation_outcome(fast, L, None) == generation_outcome(slow, L, None)

    def test_half_walk_pulls_half_the_members(self, monkeypatch):
        # timing-free work gate on sharp (101,4): the all-orthant search
        # pulls 37,741 members; the half walk may exceed half of that only
        # by the members of the last shell it stops in
        L = sharp(101, 4)
        pulled = [0]

        def counting(L, mode):
            walk = shell_walker(L, mode)

            def counted(d, *form):
                for v in walk(d, *form):
                    pulled[0] += 1
                    yield v
            return counted

        reference = shell_generation_search(
            L, "all", "bfieldr", walk=lambda L, d, mode: counting(L, mode)(d))
        full = pulled[0]
        pulled[0] = 0
        monkeypatch.setattr(degree_bounds, "shell_walker", counting)
        assert bfieldr(L) == reference
        last_shell = len(list(lattice_shell_points(L, reference.value, "all")))
        assert 0 < pulled[0] <= full // 2 + last_shell, (pulled[0], full, last_shell)


def filtered_shell(L, d, mode):
    """The slow reference walk: shell_points filtered by membership."""
    return [v for v in shell_points(L.dimension, d, mode) if v in L]


# single rows of small and large index, with gcd(n, row) > 1 or a first
# pivot of 2, m = 4..6
ROW_SYSTEMS = [CongruenceSystem((n,), (row,)) for n, row in (
    (23, (1, 22, 2, 21, 3, 20)), (12, (2, 4, 6, 10, 8)), (8, (1, 2, 4, 6, 2, 4)),
    (211, (1, 5, 25, 125, 203)), (97, (1, 10, 3, 30)), (30, (6, 10, 15, 1)))]


class TestSingleRowSearches:
    """The searches on single rows, against the whole-shell search over the
    filtered reference walk, which shares no walker code."""

    @pytest.mark.parametrize("system", ROW_SYSTEMS, ids=str)
    def test_against_filtered_shell_search(self, system):
        L = from_congruences(system)
        for fast, mode, which in ((bfieldr, "all", "bfieldr"),
                                  (bfield, "nonnegative", "bfield")):
            slow = partial(shell_generation_search, mode=mode, which=which,
                           walk=filtered_shell)
            assert generation_outcome(fast, L, None) == generation_outcome(slow, L, None)


def record_form_tests(monkeypatch):
    """Spy on the two membership tests of a generation search.  Returns the
    event list: ("form", (f, g) or None) per _saturated_form call and
    ("reduce", rank) per triangular_reduce, rank the accumulator's (None on
    L)."""
    events = []
    saturated_form, reduce = degree_bounds._saturated_form, lattice_core.triangular_reduce

    def form(acc, L):
        f = saturated_form(acc, L)
        events.append(("form", f))
        return f

    def counted(basis, v):
        events.append(("reduce", getattr(basis, "rank", None)))
        return reduce(basis, v)

    monkeypatch.setattr(degree_bounds, "_saturated_form", form)
    monkeypatch.setattr(lattice_core, "triangular_reduce", counted)
    return events


def saturated_reference(acc, L):
    """The primitive form vanishing on acc (rank m - 1), from integer_kernel,
    and whether acc is all of L ∩ ker f, by comparing Hermite forms."""
    m = L.dimension
    cols = [c for c in acc.columns if c is not None]
    (f,) = lattice_core.integer_kernel(cols, m)
    # L ∩ ker f is B c over the c with (f B) c = 0, B the columns of L
    fb = [sum(a * x for a, x in zip(f, col)) for col in L.columns]
    meet = [tuple(sum(t * col[r] for t, col in zip(c, L.columns)) for r in range(m))
            for c in lattice_core.integer_kernel([fb], m)]
    return f, lattice_core.hnf_columns(meet, m) == lattice_core.hnf_columns(cols, m)


def assert_form_agrees(got, acc, L):
    """got, what _saturated_form returned on acc, against the reference: the
    pair (f, g), g the gcd of f over L, or None."""
    f, saturated = saturated_reference(acc, L)
    if saturated:
        assert got is not None and tuple(got[0]) in (f, tuple(-x for x in f)), (L, got, f)
        assert got[1] == oracles.form_gcd(f, L.columns), (L, got, f)
    else:
        assert got is None, (L, got, f)


# one-row systems whose rank-(m - 1) accumulator is not L ∩ ker f in the
# bfield search, so the members after it are still tested by reduction
UNSATURATED_ROWS = [CongruenceSystem((n,), (row,)) for n, row in (
    (38, (16, 3, 20, 1, 5)), (30, (21, 1, 15, 16)), (39, (8, 37, 20, 36)),
    (24, (16, 13, 5, 4, 18)), (50, (23, 42, 32, 33, 40)))]


class TestSaturatedForm:
    """Past rank m - 1 the searches test members with one dot product only
    while the accumulator is saturated; elsewhere they reduce, and they
    report what the whole-shell search reports either way."""

    REFERENCES = TestAgainstShellSearch.REFERENCES

    @pytest.mark.parametrize("system", UNSATURATED_ROWS, ids=str)
    def test_unsaturated_accumulators_fall_back(self, monkeypatch, system):
        L = from_congruences(system)
        m = L.dimension
        reference = [generation_outcome(slow, L, None) for _, slow in self.REFERENCES]
        events = record_form_tests(monkeypatch)
        assert [generation_outcome(fast, L, None) for fast, _ in self.REFERENCES] == reference
        # some shell ended with an unsaturated accumulator, and the members
        # after it were reduced at rank m - 1
        first = events.index(("form", None))
        assert ("reduce", m - 1) in events[first:]

    @staticmethod
    def draw_lattice(data):
        """A two-row system (m 1..4, moduli up to 12) or a bare basis (m 1..3,
        index up to 100); None for dependent generators or a larger index."""
        if data.draw(st.booleans(), label="bare basis"):
            m = data.draw(st.integers(1, 3), label="m")
            gens = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                                      min_size=m, max_size=m), label="generators")
            try:
                L = LatticeBasis.from_generators(gens, m)
            except ValueError:
                return None
            return L if L.index <= 100 else None
        m = data.draw(st.integers(1, 4), label="m")
        moduli = tuple(data.draw(st.lists(st.integers(2, 12), min_size=2, max_size=2),
                                 label="moduli"))
        rows = tuple(
            tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
                            label="row"))
            for n in moduli)
        return from_congruences(CongruenceSystem(moduli, rows))

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.data())
    def test_property(self, data):
        L = self.draw_lattice(data)
        if L is None:
            return
        cap = data.draw(st.one_of(st.none(), st.integers(0, 6)), label="cap")
        reference = [generation_outcome(slow, L, cap) for _, slow in self.REFERENCES]
        saturated_form = degree_bounds._saturated_form

        def checked(acc, L):
            got = saturated_form(acc, L)
            assert_form_agrees(got, acc, L)
            return got

        degree_bounds._saturated_form = checked
        try:
            got = [generation_outcome(fast, L, cap) for fast, _ in self.REFERENCES]
        finally:
            degree_bounds._saturated_form = saturated_form
        assert got == reference, (L, cap)

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_form_of_drawn_members(self, data):
        # m - 1 drawn members of L, many of them spanning an unsaturated
        # sublattice of their hyperplane, against the kernel reference
        L = self.draw_lattice(data)
        if L is None:
            return
        m = L.dimension
        acc = GeneratedLattice(m)
        for _ in range(m - 1):
            coefs = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                              label="coordinates")
            acc.add([sum(c * col[r] for c, col in zip(coefs, L.columns)) for r in range(m)])
        if acc.rank == m - 1:
            assert_form_agrees(degree_bounds._saturated_form(acc, L), acc, L)

    @pytest.mark.parametrize("spec, limits", [
        # with a reduction per walked member: 112 / 694, 96 / 798, 4,024 / 18,701
        (SharpCaseSpec(31, 5, 1), (5, 8)),
        (SharpCaseSpec(23, 6), (8, 17)),
        (SharpCaseSpec(101, 4), (5, 8)),
    ], ids=str)
    def test_reductions_per_search(self, monkeypatch, spec, limits):
        # timing-free work gate: on the sharp lattices every rank-(m - 1)
        # accumulator is saturated, so only the members walked before it
        # are reduced
        L = from_congruences(sharp_case_lattice(spec))
        events = record_form_tests(monkeypatch)
        counts = []
        for search in (bfield, bfieldr):
            events.clear()
            search(L)
            counts.append(sum(e[0] == "reduce" for e in events))
            assert ("form", None) not in events
        assert all(c <= limit for c, limit in zip(counts, limits)), (counts, limits)

    @pytest.mark.parametrize("system, taken", [
        # bfield holds its form over three shells, which took 5 gcds
        (CongruenceSystem((53,), ((30, 50, 16),)), [1, 1]),
        (sharp_case_lattice(SharpCaseSpec(23, 6)), [1, 1]),
        # bfield's rank-4 accumulator is unsaturated: its form is not taken
        (UNSATURATED_ROWS[0], [1, 0]),
    ], ids=str)
    def test_form_gcd_once_per_tried_form(self, monkeypatch, system, taken):
        # work gate: g, the gcd of f over L, is computed once per tried form,
        # by the saturation test, and a taken form carries it in its pair to
        # the skip and the walk's prune (it was computed again for each and
        # again per shell while f was held)
        L = from_congruences(system)
        reference = [generation_outcome(slow, L, None) for _, slow in self.REFERENCES]
        saturated_form, tried, calls = degree_bounds._saturated_form, [], []

        def form(acc, L):
            tried.append(saturated_reference(acc, L)[0])
            return saturated_form(acc, L)

        def counted(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(degree_bounds, "_saturated_form", form)
        for module in (degree_bounds, ball_enum):
            monkeypatch.setattr(module, "gcd", counted)
        events = record_form_tests(monkeypatch)
        got = []
        for (fast, _), ref in zip(self.REFERENCES, reference):
            tried.clear()
            calls.clear()
            events.clear()
            assert generation_outcome(fast, L, None) == ref
            for f in tried:
                values = tuple(sum(map(mul, f, col)) for col in L.columns)
                negated = tuple(-x for x in values)
                assert sum(args in (values, negated) for args in calls) == 1, (f, calls)
            got.append(sum(e[1] is not None for e in events if e[0] == "form"))
        assert got == taken


class TestRelations:
    def test_examples(self):
        ok, values = verify_bound_relations(kernel(4, (1, 3)))
        assert ok
        assert values == {"dspan": 2, "bfield": 4, "bfieldr": 4, "index": 4}
        ok, values = verify_bound_relations(LatticeBasis.identity(2))
        assert ok and values["dspan"] == 0 and values["bfield"] == 1
        ok, values = verify_bound_relations(kernel(5, (1, 4)))
        assert ok and values["bfield"] == 5 and values["dspan"] >= 2


class TestReports:
    def test_json_shape(self):
        rep = dspan(kernel(4, (1, 3)))
        data = json.loads(rep.to_json())
        assert data["which"] == "dspan"
        assert data["value"] == 2
        assert data["index"] == 4
        # keys are the congruence labels of each coset
        assert set(data["witnesses"]) == {"0", "1", "2", "3"}

        rep = bfield(kernel(4, (1, 3)))
        data = json.loads(rep.to_json())
        assert data["witnesses"] == [[1, 1], [0, 4]]

    def test_determinism(self):
        a = dspan(kernel(7, (1, 2))).to_json()
        b = dspan(kernel(7, (1, 2))).to_json()
        assert a == b

    @staticmethod
    def draw_lattice(data):
        """A one-row system (m 1..5, moduli up to 40, zero coefficients and
        rows sharing a factor with n among them), a two- or three-row system
        (m 1..4, moduli up to 12) or a bare basis (m 1..3, index up to 100);
        None for dependent generators or a larger index."""
        kind = data.draw(st.sampled_from(("one row", "rows", "bare basis")), label="kind")
        if kind == "bare basis":
            m = data.draw(st.integers(1, 3), label="m")
            gens = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                                      min_size=m, max_size=m), label="generators")
            try:
                L = LatticeBasis.from_generators(gens, m)
            except ValueError:
                return None
            return L if L.index <= 100 else None
        if kind == "one row":
            m, n = data.draw(st.integers(1, 5), label="m"), data.draw(st.integers(2, 40), label="n")
            g = data.draw(st.sampled_from((1, 2, 3)), label="factor")
            row = tuple(g * x % n for x in data.draw(
                st.lists(st.integers(0, n - 1), min_size=m, max_size=m), label="row"))
            return kernel(n, row)
        m, r = data.draw(st.integers(1, 4), label="m"), data.draw(st.integers(2, 3), label="rows")
        moduli = tuple(data.draw(st.lists(st.integers(2, 12), min_size=r, max_size=r),
                                 label="moduli"))
        rows = tuple(
            tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
                            label="row"))
            for n in moduli)
        return from_congruences(CongruenceSystem(moduli, rows))

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_jsonable_matches_reference(self, data):
        # int keys and the report's tuples write the text of str keys and lists
        L = self.draw_lattice(data)
        if L is None:
            return
        rep = dspan(L)
        assert json.dumps(rep.to_jsonable()) == \
            json.dumps(oracles.dspan_jsonable_reference(rep))

    def test_jsonable_copies_no_witness(self):
        # timing-free gate: one modulus keys each witness by its int residue
        # and hands over the report's own tuple; more moduli key it by the
        # comma-joined residues
        rep = dspan(kernel(1399, (1, 1398)))
        wit = rep.to_jsonable()["witnesses"]
        assert len(wit) == 1399
        assert all(type(k) is int for k in wit)
        assert all(wit[key[0]] is vec for key, vec in rep.witnesses.items())
        rep = dspan(from_congruences(CongruenceSystem((4, 6), ((1, 3, 0), (0, 1, 5)))))
        wit = rep.to_jsonable()["witnesses"]
        assert list(wit) == [",".join(map(str, key)) for key in rep.witnesses]
        assert all(wit[",".join(map(str, key))] is vec for key, vec in rep.witnesses.items())
