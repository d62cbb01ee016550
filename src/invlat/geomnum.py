"""Geometry of numbers for L1 balls against a full-rank lattice.

Successive minima, read from the rank-raising adds of the generation
search that bfieldr runs (degree_bounds._generation_search), the Minkowski
product test, short bases refined from minima witnesses, and the
completion of m - 1 short independent vectors to a genuine basis via the
determinant linear form, whose coefficient j is det(b_1, ..., b_{m-1},
e_j).  The refinement, the completion and the determinant forms all run
on one fold of inverse rows (_fold) through the xgcd column step of
lattice_core, on Python ints; root enclosures on Fraction.  Nothing is
floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .degree_bounds import _generation_search
from .lattice_core import InternalError, _gcd_step, is_generating, l1norm


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

    The first m rank-raising adds of bfieldr's walk
    (degree_bounds._generation_search in mode "half"): its members are
    walked outward in lex order, and each one outside the span of those
    kept so far raises the rank, so the shell radius of the i-th such add
    is exactly the i-th minimum.  Half of each shell is enough: -v spans
    what v spans and comes first.  index * e_i always lies in L, which
    makes index a safe default cap.
    """
    if cap is None:
        cap = L.index
    adds = _generation_search(L, "half", "successive_minima", cap)
    minima = itertools.islice(((d, v) for d, v, raised in adds if raised), L.dimension)
    values, witnesses = zip(*minima)
    return SuccessiveMinima(values, witnesses)


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


def _fold(rows, x, i):
    """One xgcd fold of x into row i of the inverse rows, in place.

    rows[k] is [c_k] + V_k.  Each c_k becomes V_k . x, then every nonzero
    c_k with k > i is cleared into c_i by lattice_core._gcd_step, a
    unimodular step of determinant +1 on rows i and k, and row i is negated
    if c_i < 0.  Afterwards c_i >= 0 is the gcd of the old c_i..c_{m-1}.
    Returns the determinant of the fold: -1 if row i was negated, else 1.
    """
    for row in rows:
        row[0] = sum(a * b for a, b in zip(row[1:], x))
    for k in range(i + 1, len(rows)):
        if rows[k][0]:
            _gcd_step(rows[i], rows[k], 0)
    if rows[i][0] < 0:
        rows[i] = [-t for t in rows[i]]
        return -1
    return 1


@dataclass(frozen=True)
class MahlerBasis:
    vectors: tuple
    norms: tuple
    minima: SuccessiveMinima


def mahler_basis(L) -> MahlerBasis:
    """Basis of L with the i-th vector inside span of the first i minima
    witnesses and norm at most i * lambda_i; determinant forced to +index.

    Classical refinement on the inverse rows of one unimodular basis, with
    no kernel or solve per minimum: an xgcd fold (_fold) brings witness i
    onto b_1..b_{i-1} and one new lattice vector, which is then shifted by
    the rounding box around w_i / a_i to stay short.  The i * lambda_i
    ceiling is checked and a violation raises, rather than returning a
    silently weaker basis.
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
    The witnesses are read as successive_minima reads them: the first m
    rank-raising adds of bfieldr's walk.

    rows holds, after a c slot, the rows V_k of the inverse of a unimodular
    basis U of L's coordinates whose first i - 1 columns are b_1..b_{i-1};
    U itself is never formed.  _fold(rows, coords of w_i, i) leaves c with
    w_i = a_i u + sum_{j<i} c_j b_j, u = U_i in ambient coordinates and
    a_i = c_i > 0.  The vector is the (norm, lex)-least u + sum z_j b_j,
    z_j the floor or ceiling of c_j / a_i, that is
    (w_i + sum (a_i z_j - c_j) b_j) / a_i; it becomes U_i through the shear
    V_j -= z_j V_i.  Its norm is checked against i * lambda_i; a failed
    invariant raises InternalError.  No kernel or solve runs per minimum
    (tests/oracles.py keeps the rebuild-per-minimum refinement as
    refined_reference).  The i-th vector depends only on witnesses 1..i,
    and the walk is resumed per witness, so taking the first k of them walks
    no shell beyond lambda_k.
    """
    m = L.dimension
    rows = [[0] + [int(j == k) for k in range(m)] for j in range(m)]
    basis = []
    adds = _generation_search(L, "half", "successive_minima", L.index)
    minima = itertools.islice(((d, w) for d, w, raised in adds if raised), m)
    for i, (radius, w) in enumerate(minima):  # row i: witness i + 1
        _fold(rows, L.coords(w), i)
        a_i = rows[i][0]
        if a_i == 0:
            raise InternalError(f"minima witness {i + 1} fell into the previous span")
        c = [row[0] for row in rows[:i]]
        options = [(t // a_i,) if t % a_i == 0 else (t // a_i, t // a_i + 1) for t in c]
        candidates = []
        for zs in itertools.product(*options):
            f = [a_i * z - t for z, t in zip(zs, c)]
            amb = tuple((w[r] + sum(e * b[r] for e, b in zip(f, basis))) // a_i
                        for r in range(m))
            candidates.append((l1norm(amb), amb, zs))
        nm, amb, zs = min(candidates)
        if nm > (i + 1) * radius:
            raise InternalError(
                f"basis vector {i + 1} has norm {nm} > {i + 1} * minimum {radius}")
        for j, z in enumerate(zs):
            rows[j] = [a - z * b for a, b in zip(rows[j], rows[i])]
        if next((t for t in amb if t != 0), 0) < 0:
            amb = tuple(-t for t in amb)
            rows[i] = [-t for t in rows[i]]
        basis.append(amb)
        yield radius, w, amb


@dataclass(frozen=True)
class DeterminantForm:
    """Integer linear form w -> det(b_1, ..., b_{m-1}, w) as a coefficient row."""

    coefficients: tuple

    def apply(self, w):
        return sum(a * x for a, x in zip(self.coefficients, w))


def determinant_form(vectors, dimension=None) -> DeterminantForm:
    """The form whose j-th coefficient is det(b_1, ..., b_{m-1}, e_j).

    The m - 1 vectors b_i are folded (_fold) in turn into the inverse rows
    V of Z^m.  Afterwards V B is upper triangular with diagonal a_1..a_{m-1}
    and det V = +-1 is the product of the folds' signs, so
    det(B | w) = det V * a_1 ... a_{m-1} * (V_m . w): the coefficients are
    the last row of V times that scale, which is zero exactly when the
    vectors are dependent.  Applying the form to any w gives the full
    determinant with w as the last column.
    """
    vs = [tuple(v) for v in vectors]
    if dimension is None:
        if not vs:
            raise ValueError("need the dimension for an empty vector list")
        dimension = len(vs[0])
    m = dimension
    if len(vs) != m - 1 or any(len(v) != m for v in vs):
        raise ValueError("expected m - 1 vectors of length m")
    rows = [[0] + [int(j == k) for k in range(m)] for j in range(m)]
    scale = 1
    for i, v in enumerate(vs):
        scale *= _fold(rows, v, i) * rows[i][0]
    if not scale:
        raise DependentInputError("vectors are linearly dependent")
    return DeterminantForm(tuple(scale * t for t in rows[-1][1:]))


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

    b* is the one member of L on the affine hyperplane {w : D . w = index}
    with (index / D*) e_{j*} - b* in the half-open parallelepiped
    sum [0, 1) b_j: b* = (index / D*) e_{j*} - sum frac(t_j) b_j, with t the
    coordinates of (index / D*) e_{j*} over b_1..b_{m-1} and the vector
    that completes them.  t comes from the inverse rows V of that completed
    basis in L's coordinates, built by folding the coordinates of each b_j
    (_fold) and shearing the rows above it, so t_j = V_j . y / D* with y
    the coordinates of index e_{j*}; everything stays in integers.  That
    pins ||b*||_1 <= index / |D*| + sum of the given norms, and makes
    det(b_1, ..., b_{m-1}, b*) = +index exactly.  The vectors extend to a
    basis iff the gcd of D over L's columns is the index; otherwise, or
    when a vector is not in L, NoSolutionError is raised.
    """
    m = L.dimension
    bs = [tuple(v) for v in short_vectors]
    if len(bs) != m - 1:
        raise ValueError("expected m - 1 vectors")
    try:
        xs = [L.coords(v) for v in bs]
    except ValueError as exc:
        raise NoSolutionError("short vectors must lie in the lattice") from exc
    form = determinant_form(bs, m)
    D = form.coefficients
    dstar_index = max(range(m), key=lambda j: abs(D[j]))
    dstar = D[dstar_index]
    if math.gcd(*(form.apply(col) for col in L.columns)) != L.index:
        raise NoSolutionError("short vectors do not extend to a basis of the lattice")
    rows = [[0] + [int(j == k) for k in range(m)] for j in range(m)]
    for i, x in enumerate(xs):
        _fold(rows, x, i)
        if rows[i][0] != 1:
            raise InternalError("completion found a pivot other than 1; construction bug")
        for j in range(i):
            q = rows[j][0]
            rows[j] = [a - q * b for a, b in zip(rows[j], rows[i])]
    y = L.coords(tuple(L.index if r == dstar_index else 0 for r in range(m)))
    d, sign = abs(dstar), (1 if dstar > 0 else -1)
    fracs = [sign * sum(a * b for a, b in zip(row[1:], y)) % d for row in rows[:-1]]
    bstar = tuple((sign * L.index * (r == dstar_index)
                   - sum(f * b[r] for f, b in zip(fracs, bs))) // d for r in range(m))
    if form.apply(bstar) != L.index:
        raise InternalError("completion missed the determinant target; construction bug")
    norm_bound = Fraction(L.index, d) + sum(l1norm(b) for b in bs)
    if l1norm(bstar) > norm_bound:
        raise InternalError("completion exceeded its norm bound; construction bug")
    return BasisCompletion(bstar, dstar, dstar_index, norm_bound, d >= L.index, form)


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
    if index < 1:
        raise ValueError("index must be positive")
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
