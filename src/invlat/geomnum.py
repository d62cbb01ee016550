"""Geometry of numbers for L1 balls against a full-rank lattice.

Successive minima by exhaustive search over the lattice members of each
shell, the Minkowski product test, short bases refined from minima
witnesses, and the completion of m - 1 short independent vectors to a
genuine basis via the determinant linear form, whose coefficient j is
det(b_1, ..., b_{m-1}, e_j).  The refinement runs on xgcd steps; solves,
determinants and determinant forms on one fraction-free elimination
(Bareiss, _eliminate) on Python ints; root enclosures on Fraction.
Nothing is floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ball_enum import shell_walker
from .degree_bounds import CapExceededError
from .lattice_core import InternalError, is_generating, l1norm, xgcd


class DependentInputError(ValueError):
    """The supplied vectors are linearly dependent."""


class NoSolutionError(ValueError):
    """No integer solution exists (inputs were not from the lattice)."""


@dataclass(frozen=True)
class SuccessiveMinima:
    """values[i] is the least radius reaching i+1 independent lattice vectors."""

    values: tuple
    witnesses: tuple


def successive_minima(L, cap=None) -> SuccessiveMinima:
    """Exact successive minima of the L1 ball against L.

    The lattice members of each shell are walked outward in lex order, and
    any member outside the span of the vectors collected so far is kept, so
    the shell radius at the i-th collection is exactly the i-th minimum.
    The span test is a set of primitive integer linear forms spanning the
    forms that vanish on the witnesses (the identity rows before the
    first): v lies outside the span iff some form is nonzero on v.  The
    forms change only when a witness w is kept: with a_j = f_j . w and p
    the first index with a_p != 0, they become a_p f_j - a_j f_p for every
    j != p, each divided by its content.  At rank m - 1 the one form left
    is the determinant form up to its content.  Only half of each shell is
    walked: -v spans what v spans and comes first.  index * e_i always lies
    in L, which makes index a safe default cap.
    """
    if cap is None:
        cap = L.index
    values, witnesses = zip(*itertools.islice(_minima(L, cap), L.dimension))
    return SuccessiveMinima(values, witnesses)


def _minima(L, cap):
    """Yield (radius, witness) for each successive minimum in turn, walking
    no shell beyond the one that holds the last minimum asked for."""
    m = L.dimension
    forms = [tuple(1 if k == j else 0 for k in range(m)) for j in range(m)]
    walk = shell_walker(L, "half")
    for d in range(1, cap + 1):
        for v in walk(d):
            a = [sum(c * x for c, x in zip(f, v)) for f in forms]
            if not any(a):
                continue
            yield d, v
            if len(forms) == 1:
                return
            forms = _narrow(forms, a)
    raise CapExceededError("successive_minima", cap)


def _narrow(forms, a):
    """The span forms of successive_minima after keeping w, from a, the
    values of forms on w (not all zero)."""
    p = next(j for j, aj in enumerate(a) if aj)
    fp = forms[p]
    out = []
    for j, (f, aj) in enumerate(zip(forms, a)):
        if j != p:
            row = [a[p] * c - aj * cp for c, cp in zip(f, fp)]
            g = math.gcd(*row)
            out.append(tuple(c // g for c in row))
    return out


@dataclass(frozen=True)
class MinkowskiCheck:
    minima: SuccessiveMinima
    product: int
    bound: int
    ok: bool


def minkowski_check(L, sm=None) -> MinkowskiCheck:
    """Second-theorem product test specialised to the cross-polytope.

    The L1 unit ball has volume 2^m / m!, so the product of the minima is at
    most m! * index.  Always true; returned as evidence, not assumed.  sm
    may carry minima already computed for L; otherwise they are recomputed.
    """
    if sm is None:
        sm = successive_minima(L)
    product = math.prod(sm.values)
    bound = math.factorial(L.dimension) * L.index
    return MinkowskiCheck(sm, product, bound, product <= bound)


def _eliminate(aug, k):
    """Fraction-free Gauss-Jordan (Bareiss) on the first k columns of aug.

    aug is a list of integer rows, changed in place.  Every entry stays a
    minor of the input, so each division by the previous pivot is exact,
    and the pivot rows are the ones plain Gauss-Jordan picks.  After step c
    a row that was never a pivot holds, in column j, the determinant of
    the pivot rows (in pivot order) and itself over columns 0..c and j.
    Returns (pivot_rows, last pivot); fewer than k pivot rows means the
    first k columns are dependent, and elimination stopped at the first one
    without a pivot.
    """
    pivot_rows = []
    prev = 1
    for c in range(k):
        pr = next((r for r, row in enumerate(aug) if row[c] and r not in pivot_rows), None)
        if pr is None:
            break
        pivot_rows.append(pr)
        prow = aug[pr]
        pv = prow[c]
        for r, row in enumerate(aug):
            if r != pr:
                f = row[c]
                aug[r] = [(pv * a - f * b) // prev for a, b in zip(row, prow)]
        prev = pv
    return pivot_rows, prev


def _solve(columns, target):
    """Solve sum_j x_j columns[j] = target over Q; needs independent columns.

    target may hold ints or Fractions; it is scaled by the lcm of their
    denominators and eliminated by _eliminate on Python ints.  Returns
    (nums, den) with den > 0 and x_j = nums[j] / den.
    """
    k = len(columns)
    scale = math.lcm(*(t.denominator for t in target))
    aug = [[col[r] for col in columns] + [t.numerator * (scale // t.denominator)]
           for r, t in enumerate(target)]
    pivot_rows, prev = _eliminate(aug, k)
    if len(pivot_rows) < k:
        raise DependentInputError("columns are linearly dependent")
    if any(row[k] for r, row in enumerate(aug) if r not in pivot_rows):
        raise NoSolutionError("target is outside the span of the columns")
    den = prev * scale
    nums = [aug[r][k] for r in pivot_rows]
    if den < 0:
        den, nums = -den, [-t for t in nums]
    return nums, den


def _solve_integer_combo(values, target):
    """Deterministic integer x with sum x_k values[k] = target, via running gcds."""
    g = 0
    coeffs = []
    for v in values:
        g2, a, b = xgcd(g, v)
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


@dataclass(frozen=True)
class MahlerBasis:
    vectors: tuple
    norms: tuple
    minima: SuccessiveMinima


def mahler_basis(L) -> MahlerBasis:
    """Basis of L with the i-th vector inside span of the first i minima
    witnesses and norm at most i * lambda_i; determinant forced to +index.

    Classical refinement on one unimodular basis and its inverse, with no
    kernel or solve per minimum: xgcd steps fold witness i into column i,
    which is then shifted by the rounding box around w_i / a_i to stay
    short.  The i * lambda_i ceiling is checked and a violation raises,
    rather than returning a silently weaker basis.
    """
    m = L.dimension
    values, witnesses, basis_amb = zip(*_refined(L))
    basis_amb = list(basis_amb)
    try:
        d = determinant_form(basis_amb[:-1], m).apply(basis_amb[-1])
    except DependentInputError:
        d = 0
    if abs(d) != L.index:
        raise InternalError("refined vectors do not form a basis; construction bug")
    if d < 0:
        basis_amb[-1] = tuple(-t for t in basis_amb[-1])
    norms = tuple(l1norm(b) for b in basis_amb)
    return MahlerBasis(tuple(basis_amb), norms, SuccessiveMinima(values, witnesses))


def _refined(L):
    """Yield (radius, witness, vector) for each successive minimum in turn,
    the vector being the refinement of mahler_basis before its sign fix.

    U (columns, in L's coordinates) is unimodular with inverse V (rows);
    before witness i its first i - 1 columns are b_1..b_{i-1}.  Of c, the
    coordinates of w_i over U, each nonzero c_k with k > i is folded into
    a_i = c_i by an xgcd step on U and V, and a_i < 0 negates U_i and V_i.
    The vector is the (norm, lex)-least U_i + sum z_j U_j, z_j the floor or
    ceiling of c_j / a_i, and it replaces U_i (V_j -= z_j V_i).  Its norm
    is checked against i * lambda_i; a failed invariant raises
    InternalError.  No kernel or solve runs per minimum (tests/oracles.py
    keeps the rebuild-per-minimum refinement as refined_reference).  The
    i-th vector depends only on witnesses 1..i, so taking the first k of
    them walks no shell beyond lambda_k.
    """
    m = L.dimension
    U = [[int(j == k) for k in range(m)] for j in range(m)]
    V = [list(row) for row in U]
    for i, (radius, w) in enumerate(_minima(L, L.index)):  # column i: witness i + 1
        wx = L.coords(w)
        c = [sum(a * b for a, b in zip(row, wx)) for row in V]
        for k in range(i + 1, m):
            if c[k]:
                g, s, t = xgcd(c[i], c[k])
                p, q = c[i] // g, c[k] // g
                U[i], U[k] = ([p * a + q * b for a, b in zip(U[i], U[k])],
                              [s * b - t * a for a, b in zip(U[i], U[k])])
                V[i], V[k] = ([s * a + t * b for a, b in zip(V[i], V[k])],
                              [p * b - q * a for a, b in zip(V[i], V[k])])
                c[i], c[k] = g, 0
        a_i = c[i]
        if a_i == 0:
            raise InternalError(f"minima witness {i + 1} fell into the previous span")
        if a_i < 0:
            a_i = -a_i
            U[i] = [-t for t in U[i]]
            V[i] = [-t for t in V[i]]
        options = [(t // a_i,) if t % a_i == 0 else (t // a_i, t // a_i + 1)
                   for t in c[:i]]
        candidates = []
        for zs in itertools.product(*options):
            x = [sum(z * u[k] for z, u in zip(zs + (1,), U)) for k in range(m)]
            amb = tuple(sum(x[k] * L.columns[k][r] for k in range(m)) for r in range(m))
            candidates.append((l1norm(amb), amb, x, zs))
        nm, amb, x, zs = min(candidates)
        if nm > (i + 1) * radius:
            raise InternalError(
                f"basis vector {i + 1} has norm {nm} > {i + 1} * minimum {radius}")
        for j, z in enumerate(zs):
            V[j] = [a - z * b for a, b in zip(V[j], V[i])]
        if next((t for t in amb if t != 0), 0) < 0:
            amb = tuple(-t for t in amb)
            x = [-t for t in x]
            V[i] = [-t for t in V[i]]
        U[i] = x
        yield radius, w, amb


@dataclass(frozen=True)
class DeterminantForm:
    """Integer linear form w -> det(b_1, ..., b_{m-1}, w) as a coefficient row."""

    coefficients: tuple

    def apply(self, w):
        return sum(a * x for a, x in zip(self.coefficients, w))


def determinant_form(vectors, dimension=None) -> DeterminantForm:
    """The form whose j-th coefficient is det(b_1, ..., b_{m-1}, e_j).

    One _eliminate over the m - 1 given columns of [B | I_m] leaves one row
    that was never a pivot; its last m entries are those determinants with
    the rows taken in pivot order, so the sign of that row permutation
    turns them into the coefficients.  Applying the form to any w gives the
    full determinant with w as the last column.
    """
    vs = [tuple(v) for v in vectors]
    if dimension is None:
        if not vs:
            raise ValueError("need the dimension for an empty vector list")
        dimension = len(vs[0])
    m = dimension
    if len(vs) != m - 1 or any(len(v) != m for v in vs):
        raise ValueError("expected m - 1 vectors of length m")
    aug = [[v[r] for v in vs] + [1 if k == r else 0 for k in range(m)]
           for r in range(m)]
    pivot_rows, _ = _eliminate(aug, m - 1)
    if len(pivot_rows) < m - 1:
        raise DependentInputError("vectors are linearly dependent")
    order = pivot_rows + [r for r in range(m) if r not in pivot_rows]
    inversions = sum(a > b for j, a in enumerate(order) for b in order[j + 1:])
    sign = -1 if inversions % 2 else 1
    return DeterminantForm(tuple(sign * t for t in aug[order[-1]][m - 1:]))


@dataclass(frozen=True)
class BasisCompletion:
    """Completion b* of m - 1 short lattice vectors to a basis of L.

    dstar is the signed dominant coefficient of the determinant form, picked
    as the largest absolute value with ties to the smallest index;
    dstar_at_least_index records the degenerate regime |D*| >= index.
    """

    bstar: tuple
    dstar: int
    dstar_index: int
    norm_bound: Fraction
    dstar_at_least_index: bool
    form: DeterminantForm


def complete_basis_short(L, short_vectors) -> BasisCompletion:
    """Complete m - 1 independent short members of L to a basis of L.

    b* is found inside the affine hyperplane {w : D . w = index}: take the
    deterministic c in L with D . c = index, then shift by the floor of the
    rational coordinates of (index / D*) e_{j*} - c over the given vectors.
    That pins ||b*||_1 <= index / |D*| + sum of the given norms, and makes
    det(b_1, ..., b_{m-1}, b*) = +index exactly.
    """
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
    images = [form.apply(col) for col in L.columns]
    x = _solve_integer_combo(images, L.index)
    c = [sum(x[k] * L.columns[k][r] for k in range(m)) for r in range(m)]
    diff = [Fraction(L.index, dstar) - c[r] if r == dstar_index else Fraction(-c[r])
            for r in range(m)]
    nums, den = _solve(bs, diff)
    bstar = list(c)
    for t, b in zip(nums, bs):
        ft = t // den
        if ft:
            for r in range(m):
                bstar[r] += ft * b[r]
    bstar = tuple(bstar)
    if form.apply(bstar) != L.index:
        raise InternalError("completion missed the determinant target; construction bug")
    norm_bound = Fraction(L.index, abs(dstar)) + sum(l1norm(b) for b in bs)
    if l1norm(bstar) > norm_bound:
        raise InternalError("completion exceeded its norm bound; construction bug")
    return BasisCompletion(
        bstar, dstar, dstar_index, norm_bound, abs(dstar) >= L.index, form)


@dataclass(frozen=True)
class GenDegBasis:
    """Full short basis: m - 1 refined vectors plus the hyperplane completion."""

    vectors: tuple
    norms: tuple
    max_norm: int
    bound: int
    within_bound: bool
    completion: BasisCompletion


def gen_deg_basis(L) -> GenDegBasis:
    """Basis of L assembled from the minima refinement and b*.

    bound is ceil(index / ceil(m / 2)); within_bound reports whether the
    construction met it on this lattice (guaranteed only asymptotically, so
    it is a flag and not an assertion).  Only the first m - 1 refined
    vectors are built, so the minima walk stops at lambda_{m-1}; the m - 1
    vectors must extend to a basis, and a determinant form that is zero or
    whose gcd over L is not the index raises InternalError.
    """
    m = L.dimension
    short = [b for _, _, b in itertools.islice(_refined(L), m - 1)]
    try:
        comp = complete_basis_short(L, short)
    except (DependentInputError, NoSolutionError) as exc:
        raise InternalError("refined vectors do not form a basis; construction bug") from exc
    vectors = tuple(short) + (comp.bstar,)
    norms = tuple(l1norm(v) for v in vectors)
    bound = -(-L.index // ((m + 1) // 2))
    max_norm = max(norms)
    return GenDegBasis(vectors, norms, max_norm, bound, max_norm <= bound, comp)


def effective_minima_bounds(dimension, index):
    """Rational upper enclosures for the norms of the refined basis vectors.

    For i = 1 .. m-1 the i-th entry dominates i * lambda_i under the standing
    hypothesis that the lattice has no norm-1 points and at most floor(m/2)
    norm-2 points.  Roots are rounded outward on a 10^-6 grid, so the values
    are true upper bounds.
    """
    m = dimension
    if m < 2:
        raise ValueError("bounds are defined for dimension >= 2")
    half = m // 2
    fact = math.factorial(m)
    out = []
    for i in range(1, m):
        if i <= half:
            q = Fraction(fact * index, 2 ** (i - 1))
        else:
            q = Fraction(fact * index, 2 ** half * 3 ** (i - 1 - half))
        out.append(i * _ceil_root(q, m - i + 1))
    return tuple(out)


def _ceil_root(q, e, scale=10 ** 6):
    """Smallest k / scale with (k / scale)^e >= q, exactly."""
    target = scale ** e * q.numerator
    den = q.denominator
    hi = 1
    while hi ** e * den < target:
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** e * den >= target:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, scale)


def dual_pair_lift(L, pairs, vectors):
    """Push a generating set into the nonnegative orthant using pair sums.

    pairs must partition the coordinate set into two-element blocks whose
    indicator sums e_i + e_j lie in L (inverse-closed coordinates).  Each
    vector a is shifted by -min(a_i, a_j, 0) along each pair sum, which never
    increases the L1 norm; the shifted vectors together with the pair sums
    generate whatever the input generated.
    """
    m = L.dimension
    blocks = [tuple(sorted(p)) for p in pairs]
    flat = sorted(i for p in blocks for i in p)
    if flat != list(range(m)) or any(len(set(p)) != 2 for p in blocks):
        raise ValueError("pairs must partition {0..m-1} into 2-element blocks")
    units = []
    for i, j in blocks:
        u = tuple(1 if k in (i, j) else 0 for k in range(m))
        if u not in L:
            raise ValueError(f"pair sum e_{i} + e_{j} is not in the lattice")
        units.append(u)
    lifted = []
    for a in vectors:
        a = tuple(a)
        if a not in L:
            raise ValueError("vectors to lift must lie in the lattice")
        b = list(a)
        for i, j in blocks:
            c = -min(a[i], a[j], 0)
            if c:
                b[i] += c
                b[j] += c
        if min(b) < 0 or l1norm(b) > l1norm(a):
            raise InternalError("lift violated its own contract; construction bug")
        lifted.append(tuple(b))
    out = tuple(lifted) + tuple(units)
    if not is_generating(L, out):
        raise ValueError("input vectors did not generate the lattice")
    return out
