"""Named lattice families and closed-form degree values.

The sharp-case family attains bfield = bfieldr = ceil(p / ceil(m/2)); the
five-coordinate composite family breaks that bound for even moduli; the
dihedral and dicyclic values are closed forms whose lower-bound witness is
checked on the abelian restriction lattice.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import combinations

from .degree_bounds import bfieldr
from .lattice_core import (
    CongruenceSystem, InternalError, from_congruences, hnf_columns, integer_kernel, l1norm)


def is_prime(n):
    # trial division; inputs are tiny
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def half_up(m):
    return (m + 1) // 2


@dataclass(frozen=True)
class SharpCaseSpec:
    """Prime p, dimension m < p, and for odd m the one removed coefficient.

    The coefficient multiset is {+-1, ..., +-ceil(m/2)} when m is even and
    that set minus `missing` when m is odd; missing defaults to
    -ceil(m/2), which truncates the interleaved sequence +1,-1,+2,-2,...
    """

    p: int
    m: int
    missing: object = None

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p = {self.p} is not an odd prime")
        if not 1 <= self.m < self.p:
            raise ValueError(f"need 1 <= m < p, got m = {self.m}, p = {self.p}")
        k = half_up(self.m)
        if self.m % 2 == 0:
            if self.missing is not None:
                raise ValueError("even m uses the full coefficient set")
        else:
            miss = self.missing if self.missing is not None else -k
            if miss not in sharp_missings(self.m):
                raise ValueError(f"missing coefficient {miss} outside +-1..+-{k}")
            object.__setattr__(self, "missing", miss)

    def signed_coefficients(self):
        """Exponents in the interleaved order +1,-1,+2,-2,... with the
        missing one (odd m) skipped."""
        seq = []
        for k in range(1, half_up(self.m) + 1):
            seq.extend((k, -k))
        if self.m % 2 == 1:
            seq.remove(self.missing)
        return tuple(seq)


def sharp_missings(m):
    """The `missing` values of the sharp family at dimension m, in sweep
    order: None for even m, else +1, -1, ..., +ceil(m/2), -ceil(m/2)."""
    if m % 2 == 0:
        return [None]
    return [s * k for k in range(1, half_up(m) + 1) for s in (1, -1)]


def sharp_case_lattice(spec: SharpCaseSpec) -> CongruenceSystem:
    row = tuple(c % spec.p for c in spec.signed_coefficients())
    return CongruenceSystem((spec.p,), (row,))


def conjecture_bound(p, m):
    """ceil(p / ceil(m/2)), the conjectured bfield bound for prime order."""
    if p < 2 or m < 1:
        raise ValueError("need p >= 2 and m >= 1")
    return -(-p // half_up(m))


def _codim1_build_order(spec):
    """Induction order over signed coefficients: the interleaved prefix up
    through +A (A = |missing|), then alternating -j, +j above A.  A positive
    missing coefficient mirrors the whole pattern through negation."""
    k = half_up(spec.m)
    if spec.m % 2 == 0:
        order = []
        for j in range(1, k + 1):
            order.extend((j, -j))
        return order
    sign = -1 if spec.missing < 0 else 1
    a = abs(spec.missing)
    order = []
    for j in range(1, a):
        order.extend((-sign * j, sign * j))
    order.append(-sign * a)
    for j in range(a + 1, k + 1):
        order.extend((sign * j, -sign * j))
    return order


def codim1_generators(spec: SharpCaseSpec):
    """m-1 nonnegative points of norm <= 3 spanning the exact-equation
    sublattice {a : sum_j s_j a_j = 0 over Z}.

    Built inductively, one point per coefficient after the first: each new
    point has value 1 in its new coordinate and support norm <= 2 over the
    coordinates already placed, chosen smallest in (norm, lex) order.
    """
    signed = spec.signed_coefficients()
    pos = {c: i for i, c in enumerate(signed)}
    order = _codim1_build_order(spec)
    placed = []
    points = []
    for c in order:
        if placed:
            best = None
            # supplements of total weight <= 2 over placed coordinates
            candidates = [()]
            candidates += [(i,) for i in placed]
            candidates += [(i, i) for i in placed]
            candidates += list(combinations(placed, 2))
            for sup in candidates:
                v = [0] * spec.m
                v[pos[c]] = 1
                for i in sup:
                    v[i] += 1
                if sum(s * x for s, x in zip(signed, v)) != 0:
                    continue
                key = (l1norm(v), tuple(v))
                if best is None or key < best:
                    best = key
            if best is None:
                raise InternalError(f"no norm-3 point exists for coefficient {c}")
            points.append(best[1])
        placed.append(pos[c])
    return tuple(points)


def codim1_check(spec: SharpCaseSpec):
    """Verify the inductive points: nonnegative, norm <= 3, satisfy the
    exact equation, and form a basis of its solution sublattice."""
    signed = spec.signed_coefficients()
    m = spec.m
    points = codim1_generators(spec)
    details = {"points": [list(p) for p in points]}
    if len(points) != m - 1:
        return False, details
    for v in points:
        if min(v) < 0 or l1norm(v) > 3:
            return False, details
        if sum(s * x for s, x in zip(signed, v)) != 0:
            return False, details
    # the points lie in the kernel, so they generate it iff the spans agree
    kernel = integer_kernel([list(signed)], m)
    if hnf_columns(points, m) != hnf_columns(kernel, m):
        return False, details
    details["rank"] = m - 1
    return True, details


def counterexample_lattice(n) -> CongruenceSystem:
    """Single row [1, n/2-1, n/2, n/2+1, n-1] mod n, defined for even n >= 4.

    At n = 4 two coefficient pairs collide; detect_trivial_or_duplicate
    flags the resulting duplicate columns.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("the family is defined for even n >= 4")
    h = n // 2
    return CongruenceSystem((n,), ((1, h - 1, h, h + 1, n - 1),))


COUNTEREXAMPLE_PROOF_VECTORS = (
    (0, 1, 0, 1, 0),
    (0, 0, 1, 1, 1),
    (1, 1, 1, 0, 0),
    (0, 0, 2, 0, 0),
)

COUNTEREXAMPLE_D = (2, -2, 0, 2, -2)


@dataclass(frozen=True)
class CounterexampleReport:
    n: int
    bfieldr: int
    half: int
    bound: int
    vectors_in_lattice: bool
    d_vector: tuple
    d_matches: bool

    @property
    def ok(self):
        return (self.bfieldr >= self.half > self.bound
                and self.vectors_in_lattice and self.d_matches)

    def to_jsonable(self):
        return dict(asdict(self), ok=self.ok)

    def to_json(self):
        return json.dumps(self.to_jsonable())


def counterexample_check(n) -> CounterexampleReport:
    """bfieldr >= n/2 > ceil(n/3) for the five-coordinate family, plus the
    determinant-form identity behind the lower bound."""
    if n % 2 != 0 or n < 6:
        raise ValueError("the check applies to even n >= 6")
    from .geomnum import determinant_form

    L = from_congruences(counterexample_lattice(n))
    br = bfieldr(L, cap=n).value
    inside = all(v in L for v in COUNTEREXAMPLE_PROOF_VECTORS)
    d = determinant_form(COUNTEREXAMPLE_PROOF_VECTORS).coefficients
    return CounterexampleReport(
        n, br, n // 2, -(-n // 3), inside, d, d == COUNTEREXAMPLE_D,
    )


def dihedral_dspan(n):
    """Closed form for the standard reflection representation: n."""
    if n < 3:
        raise ValueError("dihedral groups need n >= 3")
    return n


def dicyclic_dspan(n):
    """Closed form: n + 1."""
    if n < 2:
        raise ValueError("dicyclic groups need n >= 2")
    return n + 1


def dicyclic_label_points(n, d):
    """The nonnegative points of norm d labeled n-1 on [[1, 2n-1]] mod 2n,
    in lex order.  The label of (x, d - x) is 2x - d mod 2n, so they are
    those with 2x = d + n - 1 (mod 2n): none when d + n - 1 is odd, else
    x = (d + n - 1) / 2 mod n plus multiples of n up to d."""
    t = d + n - 1
    return [] if t % 2 else [(x, d - x) for x in range(t // 2 % n, d + 1, n)]


def dicyclic_witness_check(n) -> bool:
    """Lower-bound witness on the abelian restriction kernel [[1, 2n-1]]
    mod 2n: among nonnegative points labeled n-1, the unique norm-minimal
    one is (n-1, 0) at norm n-1, no point has norm n, and (n, 1) appears
    at norm n+1.  Each norm is solved, not walked, and dropped once tested,
    so this takes O(n) time and constant memory."""
    if n < 2:
        raise ValueError("need n >= 2")
    if any(dicyclic_label_points(n, d) for d in range(n - 1)):
        return False
    return (dicyclic_label_points(n, n - 1) == [(n - 1, 0)]
            and not dicyclic_label_points(n, n)
            and (n, 1) in dicyclic_label_points(n, n + 1))
