"""Staircase analysis of index-n sublattices of Z^2.

The two extremal lattice points H (second quadrant) and E (fourth quadrant)
on the weight-positive side of the antidiagonal either form a basis or pin
down an equally spaced lattice segment between them; both branches yield a
staircase bound on the spanning degree.  hrd_verify sweeps every index-n
sublattice, classifies the excluded shapes, and checks the halving bound
dspan <= floor(n / 2) on all the others.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

from .degree_bounds import dspan
from .lattice_core import LatticeBasis, l1norm, weight
from .parallel import parallel_map


class StructureViolation(RuntimeError):
    """A structural fact the staircase theory promises failed to hold."""


def find_H(L):
    """Extremal second-quadrant point: least positive a2 with a lattice point
    (a1, a2), a1 <= 0, of positive weight; ties resolved toward a1 = 0.

    Read off the Hermite columns (a, b), (0, d): the points with
    a1 = -a*t are those with a2 = -b*t mod d, and the least such a2 > a*t is
    a*t + 1 + (-b*t - a*t - 1) mod d.  (0, d) is always a candidate, so only
    t < ceil(d / a) can do better.
    """
    if L.dimension != 2:
        raise ValueError("staircase machinery works on sublattices of Z^2")
    (a, b), (_, d) = L.columns
    a2, t = min((a * t + 1 + (-b * t - a * t - 1) % d, t) for t in range(-(-d // a)))
    return (-a * t, a2)


def find_E(L):
    """Mirror of find_H into the fourth quadrant (swap coordinate roles).

    The points with a1 = a*t have a2 = b*t mod d; the largest a2 <= 0 is
    -((-b*t) mod d), of positive weight iff (-b*t) mod d < a*t, which holds
    by t = d at the latest.
    """
    if L.dimension != 2:
        raise ValueError("staircase machinery works on sublattices of Z^2")
    (a, b), (_, d) = L.columns
    t = next(t for t in range(1, d + 1) if (-b * t) % d < a * t)
    return (a * t, -((-b * t) % d))


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def _check_empty_triangle(L, H, E, allowed):
    """No nonzero lattice point may sit in the closed triangle (0, H, E)
    except the allowed segment points.

    Walks only the lattice points of the bounding box, column by column,
    read off the Hermite columns (a, b), (0, d): a1 = a*t, and a2 = b*t
    mod d in steps of d.
    """
    (a, b), (_, d) = L.columns
    O = (0, 0)
    for a1 in range(H[0] + (-H[0]) % a, E[0] + 1, a):
        for a2 in range(E[1] + (b * (a1 // a) - E[1]) % d, H[1] + 1, d):
            p = (a1, a2)
            if p == O or p in allowed:
                continue
            if _cross(O, E, p) >= 0 and _cross(E, H, p) >= 0 and _cross(H, O, p) >= 0:
                raise StructureViolation(
                    f"lattice point {p} inside triangle 0,{H},{E}")


@dataclass(frozen=True)
class HEPoints:
    """H, E, their determinant det(E, H), and the segment data when the two
    do not form a basis (segment empty and step None when they do)."""

    H: tuple
    E: tuple
    det: int
    forms_basis: bool
    segment: tuple
    step: object

    def staircase_points(self):
        """The point sequence feeding the dspan bound for this lattice."""
        if not self.forms_basis:
            return self.segment
        he = (self.H[0] + self.E[0], self.H[1] + self.E[1])
        pts = [self.H, he, self.E]
        keep = [
            p for p in pts
            if not any(q != p and p[0] >= q[0] and p[1] >= q[1] for q in pts)
        ]
        return tuple(keep)

    def dspan_bound(self):
        return staircase_dspan_bound(self.staircase_points())


def he_analysis(L) -> HEPoints:
    """Classify L by its extremal pair and verify the promised structure.

    Basis branch: |det(E, H)| = index and the open triangle carries no other
    lattice point.  Segment branch: equal weights, at least three equally
    spaced points with step (F, -F), F >= 2, interior points strictly inside
    the first quadrant, weight * F = index, and the triangle fact again.
    Any failure raises StructureViolation; for lattices containing e_1, e_2
    or e_1 - e_2 these facts are not promised, so screen first.
    """
    H = find_H(L)
    E = find_E(L)
    det = E[0] * H[1] - E[1] * H[0]
    n = L.index
    if abs(det) == n:
        _check_empty_triangle(L, H, E, {H, E})
        return HEPoints(H, E, det, True, (), None)
    if weight(H) != weight(E):
        raise StructureViolation(
            f"non-basis pair with unequal weights: H={H} E={E}")
    seg = [
        (H[0] + j, H[1] - j)
        for j in range(E[0] - H[0] + 1)
        if (H[0] + j, H[1] - j) in L
    ]
    if len(seg) < 3:
        raise StructureViolation(f"segment {seg} has fewer than three points")
    step = seg[1][0] - seg[0][0]
    for p, q in zip(seg, seg[1:]):
        if q[0] - p[0] != step:
            raise StructureViolation(f"segment {seg} is not equally spaced")
    if step < 2:
        raise StructureViolation(f"segment step {step} < 2")
    for p in seg[1:-1]:
        if p[0] <= 0 or p[1] <= 0:
            raise StructureViolation(f"interior point {p} left the open first quadrant")
    wt = weight(H)
    if wt * step != n:
        raise StructureViolation(f"weight {wt} * step {step} != index {n}")
    if 2 * (wt + step - 2) > wt * step:
        raise StructureViolation("corner bound exceeded half the index")
    _check_empty_triangle(L, H, E, set(seg))
    return HEPoints(H, E, det, False, tuple(seg), step)


def staircase_dspan_bound(points):
    """Corner bound max_j (a^j_1 + a^(j-1)_2 - 2) over a staircase, >= 0.

    The input must descend across the weight-positive region: strictly
    increasing first coordinates, strictly decreasing second, every point of
    positive weight, starting at or left of the a2 axis and ending at or
    below the a1 axis.
    """
    pts = [tuple(p) for p in points]
    if len(pts) < 2:
        raise ValueError("a staircase needs at least two points")
    if any(len(p) != 2 for p in pts):
        raise ValueError("staircase points live in Z^2")
    if any(weight(p) <= 0 for p in pts):
        raise ValueError("staircase points must have positive weight")
    if any(q[0] <= p[0] for p, q in zip(pts, pts[1:])):
        raise ValueError("first coordinates must strictly increase")
    if any(q[1] >= p[1] for p, q in zip(pts, pts[1:])):
        raise ValueError("second coordinates must strictly decrease")
    if pts[0][0] > 0 or pts[-1][1] > 0:
        raise ValueError("staircase must start left of and end below the axes")
    return max(0, max(q[0] + p[1] - 2 for p, q in zip(pts, pts[1:])))


def _divisors(n):
    if n < 1:
        raise ValueError("index must be positive")
    return [d for d in range(1, n + 1) if n % d == 0]


def sigma(n):
    """Divisor sum: the number of index-n sublattices of Z^2."""
    return sum(_divisors(n))


def _sublattice_shapes(n):
    """(a, b, d) with a d = n and 0 <= b < d, in increasing d then b order."""
    for d in _divisors(n):
        a = n // d
        for b in range(d):
            yield a, b, d


def enumerate_sublattices(n):
    """All index-n sublattices of Z^2, each exactly once.

    Canonical generator shape (a, b), (0, d) with a d = n and 0 <= b < d;
    yields (a, b, d, lattice) in increasing d then b order.
    """
    for a, b, d in _sublattice_shapes(n):
        yield a, b, d, LatticeBasis.from_generators([(a, b), (0, d)])


def _excluded(L):
    return (1, 0) in L or (0, 1) in L or (1, -1) in L


def _hrd_row(args):
    n, a, b, d = args
    L = LatticeBasis.from_generators([(a, b), (0, d)])
    excluded = _excluded(L)
    ds = dspan(L).value
    notes = []
    forms_basis = None
    bound = None
    bound_ok = None
    if not excluded:
        bound_ok = ds <= n // 2
        if not bound_ok:
            notes.append(f"dspan {ds} > {n // 2}")
        try:
            he = he_analysis(L)
            forms_basis = he.forms_basis
            bound = he.dspan_bound()
            if not ds <= bound:
                notes.append(f"staircase bound {bound} < exact dspan {ds}")
            if bound > n // 2:
                notes.append(f"staircase bound {bound} > {n // 2}")
        except StructureViolation as exc:
            notes.append(str(exc))
    return HrdRow(n, a, b, d, excluded, ds, bound_ok, forms_basis, bound, tuple(notes))


@dataclass(frozen=True)
class HrdRow:
    n: int
    a: int
    b: int
    d: int
    excluded: bool
    dspan: int
    bound_ok: object
    forms_basis: object
    staircase_bound: object
    notes: tuple


@dataclass(frozen=True)
class HrdReport:
    n: int
    sigma: int
    count: int
    excluded_count: int
    max_dspan_nonexcluded: object
    violations: tuple
    rows: tuple

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return json.dumps(asdict(self))


def hrd_verify(n, jobs=1) -> HrdReport:
    """Sweep the index-n sublattices and check the halving bound.

    Rows are independent, so they can fan out over a worker pool; output
    order stays the enumeration order regardless.
    """
    items = [(n, a, b, d) for a, b, d in _sublattice_shapes(n)]
    rows = parallel_map(_hrd_row, items, jobs)
    nonexcluded = [r for r in rows if not r.excluded]
    violations = tuple(
        f"n={r.n} a={r.a} b={r.b} d={r.d}: {note}" for r in rows for note in r.notes
    )
    return HrdReport(
        n,
        sigma(n),
        len(rows),
        sum(1 for r in rows if r.excluded),
        max((r.dspan for r in nonexcluded), default=None),
        violations,
        tuple(rows),
    )


def bite_check(L, samples=50, seed=0):
    """Spot-check the weight bite: a in L with wt(a) > 0 and b >= a force
    c = b - a nonnegative, congruent to b, with wt(b) > l1norm(c).  It never
    returns False: c is the drawn nonnegative offset, b - c = a is in L, and
    wt(b) = wt(a) + l1norm(c) with wt(a) > 0, so each test holds by construction."""
    rng = random.Random(seed)
    m = L.dimension
    checked = 0
    for _ in range(samples * 10):
        if checked >= samples:
            break
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        a = tuple(
            sum(c * col[r] for c, col in zip(coeffs, L.columns)) for r in range(m)
        )
        if weight(a) <= 0:
            continue
        b = tuple(x + rng.randint(0, 3) for x in a)
        c = tuple(x - y for x, y in zip(b, a))
        if min(c) < 0 or L.reduce(b) != L.reduce(c) or weight(b) <= l1norm(c):
            return False, {"a": a, "b": b, "c": c}
        checked += 1
    return True, {"checked": checked}


def blob_check(L, radius=None):
    """No weight-positive lattice point may sit under a dspan witness.

    A domination a <= w would let w - a represent the same coset at strictly
    smaller norm, contradicting witness minimality; scanned exhaustively for
    lattice points up to the given radius.  The default, twice the largest
    witness norm, finds the same first violation as any larger radius: from
    a <= w and weight(a) > 0, |a+| <= |w| and |a-| < |a+|, so |a| < 2|w|.
    """
    from .ball_enum import shell_walker

    witnesses = list(dspan(L).witnesses.values())
    if radius is None:
        radius = 2 * max(map(l1norm, witnesses))
    # the members up to radius, shell by shell, not held in one list
    walk = shell_walker(L, "all")
    for d in range(radius + 1):
        for a in walk(d):
            if weight(a) <= 0:
                continue
            for w in witnesses:
                if all(x <= y for x, y in zip(a, w)):
                    return False, {"point": a, "witness": w}
    return True, {"witnesses": len(witnesses), "radius": radius}
