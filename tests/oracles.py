"""Independent brute-force oracles.

Everything here works straight from the congruence arithmetic or from
first-principles linear algebra over Fractions, sharing no code with the
package under test, so disagreement always means a real bug on one side.
The exceptions are at the end: lattice_shell_points and
lattice_points_up_to drive the package's shell walker and are checked
against these oracles; span_form_minima, the minima walk invlat once ran
beside its generation search, tests each member against integer span
forms and drives the shell walker too; refined_reference, the Mahler
refinement rebuilt from kernels and rational solves at every minimum,
drives span_form_minima, integer_kernel and determinant_form;
completion_reference, the basis completion from a base point and
rational coordinates, drives determinant_form and lattice membership; and
dicyclic_label_walk, the points of one label on the dicyclic
restriction kernel by a walk of every nonnegative point, drives
shell_points; dspan_jsonable_reference, the json dict of a dspan report
with a str key and a list built per coset, reads the report itself; and
congruence_lattice_reference, the kernel lattice of a congruence system
built through the integer kernel for any number of rows, drives
integer_kernel and hnf_columns.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, floor, gcd


def box_points(m, radius):
    """All integer points with L1 norm <= radius, any orthant."""
    for p in product(range(-radius, radius + 1), repeat=m):
        if sum(abs(x) for x in p) <= radius:
            yield p


def nonneg_points(m, radius):
    for p in product(range(0, radius + 1), repeat=m):
        if sum(p) <= radius:
            yield p


def label(system, v):
    """Residue tuple of the congruence values of v: its coset label."""
    return tuple(
        sum(a * x for a, x in zip(row, v)) % n
        for n, row in zip(system.moduli, system.coefficients)
    )


def satisfies(system, v):
    return not any(label(system, v))


def members_up_to(system, radius, mode="all"):
    pts = box_points(system.m, radius) if mode == "all" else nonneg_points(system.m, radius)
    return [p for p in pts if satisfies(system, p)]


def subgroup_order(system):
    """Order of the subgroup of ⊕ Z_{n_i} generated by the coefficient
    columns; equals the index of the kernel lattice."""
    cols = [tuple(system.coefficients[i][j] for i in range(system.r))
            for j in range(system.m)]
    moduli = system.moduli
    seen = {tuple([0] * system.r)}
    frontier = [tuple([0] * system.r)]
    while frontier:
        nxt = []
        for g in frontier:
            for c in cols:
                h = tuple((a + b) % n for a, b, n in zip(g, c, moduli))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def rank_of(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class DependentColumns(ValueError):
    pass


class OutsideSpan(ValueError):
    pass


def solve_fractions(columns, target):
    """Solve sum_j x_j columns[j] = target over Q by Gauss-Jordan on
    Fractions; the pivot for each column is the first row not yet used
    whose current entry is nonzero.  Raises DependentColumns when a column
    has no pivot and OutsideSpan when a row left over is inconsistent."""
    k = len(columns)
    n = len(target)
    aug = [[Fraction(columns[j][r]) for j in range(k)] + [Fraction(target[r])] for r in range(n)]
    pivot_rows = []
    for c in range(k):
        pr = next((r for r in range(n) if r not in pivot_rows and aug[r][c]), None)
        if pr is None:
            raise DependentColumns
        pivot_rows.append(pr)
        inv = 1 / aug[pr][c]
        aug[pr] = [t * inv for t in aug[pr]]
        for r in range(n):
            if r != pr and aug[r][c]:
                coef = aug[r][c]
                aug[r] = [a - coef * b for a, b in zip(aug[r], aug[pr])]
    if any(aug[r][k] for r in range(n) if r not in pivot_rows):
        raise OutsideSpan
    return [aug[pivot_rows[c]][k] for c in range(k)]


def det_laplace(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * matrix[0][j] * det_laplace(minor)
    return total


def det_fraction(matrix):
    """Determinant by Gaussian elimination on Fractions, each row swap
    flipping the sign: cubic in n where det_laplace takes n! terms."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    assert det.denominator == 1
    return det.numerator


def generated_index(vectors, m, stop_at=None):
    """Index in Z^m of the subgroup generated by the vectors: the gcd of
    all maximal minors (product of Smith invariants). 0 if rank < m.

    stop_at short-circuits the minor sweep: every minor of vectors drawn
    from a lattice of that index is a multiple of it, so the gcd can never
    go lower and reaching it settles the answer.
    """
    if rank_of(vectors) < m:
        return 0
    g = 0
    for rows in combinations(vectors, m):
        g = gcd_int(g, det_laplace([list(r) for r in rows]))
        if g == 1 or (stop_at is not None and g == stop_at):
            return g
    return abs(g)


def minor_gcd(vectors, m, k):
    """gcd of all k x k minors of the vectors in Z^m (1 when k = 0)."""
    g = 0
    for rows in combinations(vectors, k):
        for coords in combinations(range(m), k):
            g = gcd_int(g, det_laplace([[r[c] for c in coords] for r in rows]))
    return g


def in_integer_span(vectors, v, m):
    """v lies in the Z-span of the vectors in Z^m, of any rank k.

    Adding v to a set of rank k keeps the rank iff v is in the Q-span, and
    then the gcd of the k x k minors (the product of the invariant factors)
    shrinks by exactly the index of the old span in the new one.
    """
    k = rank_of(vectors)
    if rank_of(list(vectors) + [v]) != k:
        return False
    return minor_gcd(list(vectors) + [v], m, k) == minor_gcd(vectors, m, k)


def form_gcd(f, columns):
    """The gcd of the form f over the columns: f . v is a multiple of it for
    every v they generate over Z."""
    return gcd(*(sum(a * x for a, x in zip(f, col)) for col in columns))


def gcd_int(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def xgcd_int(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x a + y b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def oracle_dspan(system, cap=None):
    """First radius whose nonnegative points hit every coset label."""
    order = subgroup_order(system)
    cap = order - 1 if cap is None else cap
    for d in range(0, cap + 1):
        labels = {label(system, p) for p in nonneg_points(system.m, d)}
        if len(labels) == order:
            return d
    raise AssertionError("dspan oracle exceeded its cap")


def dspan_witnesses(system):
    """{label: least nonnegative point of that label}, least by (norm, point),
    in the order the labels are first hit."""
    points = sorted(nonneg_points(system.m, oracle_dspan(system)), key=lambda p: (sum(p), p))
    out = {}
    for p in points:
        out.setdefault(label(system, p), p)
    return out


def oracle_generation(system, mode, cap=None):
    """First radius whose lattice members (given orthant mode) generate the
    kernel; the bfield / bfieldr oracle."""
    order = subgroup_order(system)
    cap = order if cap is None else cap
    for d in range(1, cap + 1):
        members = members_up_to(system, d, mode)
        if generated_index(members, system.m, stop_at=order) == order:
            return d
    raise AssertionError("generation oracle exceeded its cap")


def oracle_minima(system, limit=None):
    """Successive minima by exhaustive rank growth over whole balls."""
    m = system.m
    order = subgroup_order(system)
    limit = order if limit is None else limit
    values = []
    chosen = []
    for d in range(1, limit + 1):
        for p in members_up_to(system, d, "all"):
            if sum(abs(x) for x in p) == d and rank_of(chosen + [p]) > len(chosen):
                chosen.append(p)
                values.append(d)
                if len(values) == m:
                    return values
    raise AssertionError("minima oracle exceeded its limit")


def shell_count(dimension, radius, mode="all"):
    """Closed-form size of one shell (composition counting, no enumeration)."""
    if radius == 0:
        return 1
    if mode == "nonnegative":
        return comb(radius + dimension - 1, dimension - 1)
    return sum(
        2 ** k * comb(dimension, k) * comb(radius - 1, k - 1)
        for k in range(1, min(dimension, radius) + 1)
    )


def ball_count(dimension, radius, mode="all"):
    """Closed-form number of points with l1norm <= radius (dimension >= 0).

    In mode "half", the all-zero point and half of the others.
    """
    if mode == "nonnegative":
        return comb(radius + dimension, dimension)
    n = sum(2 ** k * comb(dimension, k) * comb(radius, k) for k in range(dimension + 1))
    return (n + 1) // 2 if mode == "half" else n


def lattice_shell_points(L, radius, mode="all"):
    """The members of L on one shell, through a fresh invlat shell_walker:
    the walk a search makes on the first shell it reaches."""
    from invlat.ball_enum import shell_walker

    return shell_walker(L, mode)(radius)


def lattice_points_up_to(L, radius, mode="all"):
    """Members of L with l1norm <= radius, ordered by shell then lex: the
    shells of one invlat shell_walker, walked in turn as a search walks
    them."""
    from invlat.ball_enum import shell_walker

    walk = shell_walker(L, mode)
    return [v for d in range(radius + 1) for v in walk(d)]


def span_form_minima(L, cap):
    """Yield (radius, witness) for each successive minimum in turn, as
    invlat.geomnum walked them before its minima read the rank-raising adds
    of the bfieldr search: one walk of the half shells, keeping each member
    on which a span form is nonzero.

    The forms span those vanishing on the witnesses (the identity rows
    before the first) and change only at a kept witness (narrow_span_forms).
    Once one form f is left, the shell after d is max(d + 1, ceil(g /
    max |f_i|)), g the gcd of f over L, walked with the prefixes that
    cannot leave ker f pruned.  Raises invlat's CapExceededError past cap.
    """
    from invlat.ball_enum import shell_walker
    from invlat.degree_bounds import CapExceededError

    m = L.dimension
    forms = [tuple(1 if k == j else 0 for k in range(m)) for j in range(m)]
    walk = shell_walker(L, "half")
    held, d = None, 1
    while d <= cap:
        for v in walk(d, held):
            a = [sum(x * y for x, y in zip(f, v)) for f in forms]
            if not any(a):
                continue
            yield d, v
            if len(forms) == 1:
                return
            forms = narrow_span_forms(forms, a)
        if len(forms) == 1:
            f = forms[0]
            g = gcd(*[sum(x * y for x, y in zip(f, col)) for col in L.columns])
            held = f, g
            d = max(d + 1, -(-g // max(map(abs, f))))
        else:
            d += 1
    raise CapExceededError("successive_minima", cap)


def narrow_span_forms(forms, a):
    """The span forms of span_form_minima after keeping w, from a, the
    values of forms on w (not all zero): with p the first index with
    a_p != 0, a_p f_j - a_j f_p for every j != p, each divided by its
    content."""
    p = next(j for j, aj in enumerate(a) if aj)
    fp = forms[p]
    out = []
    for j, (f, aj) in enumerate(zip(forms, a)):
        if j != p:
            row = [a[p] * c - aj * cp for c, cp in zip(f, fp)]
            g = gcd(*row)
            out.append(tuple(c // g for c in row))
    return out


def refined_reference(L):
    """The Mahler refinement rebuilt from scratch at each minimum, as
    invlat.geomnum._refined once did; it yields what that generator yields.

    In the coordinates of K, a basis of L inside the span of witnesses
    1..i, f is the primitive determinant form of b_1..b_{i-1}, signed so
    that a_i = f . w_i > 0, and f . y0 = 1.  The vector is the (norm,
    lex)-least w_i / a_i + sum e_j b_j with e_j in {-frac(t_j), 1 - frac(t_j)}
    and t the coordinates of w_i / a_i - y0 over b_1..b_{i-1}, sign-fixed
    to a positive leading entry.  Coordinates come from solve_fractions.
    """
    from invlat.geomnum import determinant_form
    from invlat.lattice_core import integer_kernel

    def integer_coords(columns, target):
        return [int(t) for t in solve_fractions(columns, target)]

    m = L.dimension
    ucoords = []
    basis_x = []
    for i, (radius, w) in enumerate(span_form_minima(L, L.index), start=1):
        ucoords.append(L.coords(w))
        K = integer_kernel([list(t) for t in integer_kernel(ucoords, m)], m)
        assert len(K) == i, f"minima witness {i} fell into the previous span"
        cs = [integer_coords(K, bx) for bx in basis_x]
        yv = integer_coords(K, ucoords[-1])
        f = determinant_form(cs, i).coefficients
        g = gcd(*f)
        a_i = sum(a * b for a, b in zip(f, yv)) // g
        assert a_i != 0, f"minima witness {i} fell into the previous span"
        if a_i < 0:
            g, a_i = -g, -a_i
        f = [t // g for t in f]
        y0 = solve_integer_combo(f, 1)
        delta = [Fraction(yv[k], a_i) - y0[k] for k in range(i)]
        t = solve_fractions(cs, delta)
        options = [(int(s),) if s.denominator == 1 else (floor(s), ceil(s)) for s in t]
        best = None
        for zs in product(*options):
            y = list(y0)
            for z, c in zip(zs, cs):
                for k in range(i):
                    y[k] += z * c[k]
            x = [sum(y[k] * K[k][r] for k in range(i)) for r in range(m)]
            amb = tuple(sum(x[k] * L.columns[k][r] for k in range(m)) for r in range(m))
            cand = (sum(abs(a) for a in amb), amb, x)
            if best is None or cand < best:
                best = cand
        nm, amb, x = best
        assert nm <= i * radius, f"basis vector {i} has norm {nm} > {i} * minimum {radius}"
        lead = next((t for t in amb if t != 0), 0)
        if lead < 0:
            amb = tuple(-t for t in amb)
            x = [-t for t in x]
        basis_x.append(x)
        yield radius, w, amb


def solve_integer_combo(values, target):
    """Deterministic integer x with sum x_k values[k] = target, via running
    gcds; raises invlat's NoSolutionError when there is none."""
    from invlat.geomnum import NoSolutionError

    g = 0
    coeffs = []
    for v in values:
        g2, a, b = xgcd_int(g, v)
        coeffs = [a * t for t in coeffs]
        coeffs.append(b)
        g = g2
    if g == 0:
        if target == 0:
            return [0] * len(values)
        raise NoSolutionError("all values are zero")
    if target % g:
        raise NoSolutionError(f"{target} is not a multiple of gcd {g}")
    scale = target // g
    return [t * scale for t in coeffs]


def completion_reference(L, short_vectors):
    """invlat.geomnum.complete_basis_short as it once was: the integer c in
    L with D . c = index from solve_integer_combo over D's values on L's
    columns, shifted by the floors of the rational coordinates of
    (index / D*) e_{j*} - c over the given vectors (from solve_fractions).
    Raises what complete_basis_short raises."""
    from invlat.geomnum import (BasisCompletion, NoSolutionError, determinant_form,
                                InternalError)

    m = L.dimension
    bs = [tuple(v) for v in short_vectors]
    if len(bs) != m - 1:
        raise ValueError("expected m - 1 vectors")
    for v in bs:
        if v not in L:
            raise NoSolutionError("short vectors must lie in the lattice")
    form = determinant_form(bs, m)
    D = form.coefficients
    dstar_index = max(range(m), key=lambda j: abs(D[j]))
    dstar = D[dstar_index]
    x = solve_integer_combo([form.apply(col) for col in L.columns], L.index)
    c = [sum(x[k] * L.columns[k][r] for k in range(m)) for r in range(m)]
    diff = [Fraction(L.index, dstar) - c[r] if r == dstar_index else Fraction(-c[r])
            for r in range(m)]
    t = solve_fractions(bs, diff)
    bstar = tuple(c[r] + sum(floor(tj) * b[r] for tj, b in zip(t, bs)) for r in range(m))
    if form.apply(bstar) != L.index:
        raise InternalError("completion missed the determinant target")
    norm_bound = Fraction(L.index, abs(dstar)) + sum(sum(map(abs, b)) for b in bs)
    if sum(map(abs, bstar)) > norm_bound:
        raise InternalError("completion exceeded its norm bound")
    return BasisCompletion(
        bstar, dstar, dstar_index, norm_bound, abs(dstar) >= L.index, form)


def dicyclic_label_walk(n, radius):
    """The nonnegative points labeled n-1 on [[1, 2n-1]] mod 2n, one list
    per norm 0..radius, from a walk of every point through invlat's
    shell_points: the reference for constructions.dicyclic_label_points."""
    from invlat.ball_enum import shell_points
    from invlat.lattice_core import CongruenceSystem

    system = CongruenceSystem((2 * n,), ((1, 2 * n - 1),))
    return [[v for v in shell_points(2, d, "nonnegative") if label(system, v) == (n - 1,)]
            for d in range(radius + 1)]


def dspan_jsonable_reference(report):
    """DegreeBoundReport.to_jsonable of a dspan report as first written: each
    label tuple becomes its comma-joined residues, an int label stays itself,
    and each witness becomes a list."""
    return {
        "which": report.which,
        "value": report.value,
        "witnesses": {(key if type(key) is int else ",".join(map(str, key))): list(vec)
                      for key, vec in report.witnesses.items()},
        "index": report.index,
        "search_cap": report.search_cap,
    }


def congruence_lattice_reference(system):
    """from_congruences as invlat once solved every system, for any number of
    rows: the integer kernel of [A | diag(n)], projected to the a-block and
    put in Hermite form by hnf_columns, with the system as presentation."""
    from invlat.lattice_core import LatticeBasis, hnf_columns, integer_kernel

    m, r = system.m, system.r
    rows = [list(row) + [n if k == i else 0 for k in range(r)]
            for i, (n, row) in enumerate(zip(system.moduli, system.coefficients))]
    cols, _ = hnf_columns([v[:m] for v in integer_kernel(rows, m + r)], m)
    index = 1
    for i, col in enumerate(cols):
        index *= col[i]
    return LatticeBasis(m, tuple(cols), index, (system.coefficients, system.moduli))
