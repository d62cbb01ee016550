"""Enumeration of integer points by L1 shells.

Shells of the cross-polytope are walked in lexicographic order, either over
all orthants or restricted to the nonnegative orthant.  The bfield,
bfieldr and successive-minima searches consume points in exactly this order,
which is what pins down witness tie-breaking; the dspan search reproduces
the same order without walking shells.

The searches walk lattice members directly: lattice_shell_points yields the
members of L on a shell in the same shell-then-lex order, carrying the
Hermite reduction of each coordinate prefix down the recursion, so
non-members are never visited.  The last prefix coordinate yields the
solved pairs of the last two directly; where a shell has more prefixes
than (budget, residue) keys, each key is solved once, in a dict local to
one call.  Besides the full and the nonnegative orthant it walks half of
the full shell: the members whose first nonzero coordinate is negative.
L = -L and -v precedes v in lex order, so a search that only asks whether
v grows what it has seen loses nothing by skipping v.  shell_points
followed by `v in L` (and, for the half, by the sign of the first nonzero
coordinate) stays as the slow reference it must agree with.
"""

from __future__ import annotations

from math import comb, gcd

MODES = ("all", "nonnegative")
LATTICE_MODES = MODES + ("half",)


def _check_shell_args(dimension, radius, mode, modes=MODES):
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}")
    if dimension < 1 or radius < 0:
        raise ValueError("need dimension >= 1 and radius >= 0")


def shell_points(dimension, radius, mode="all"):
    """Yield the points with l1norm == radius, lexicographically ascending.

    shell_points(2, 1) gives (-1, 0), (0, -1), (0, 1), (1, 0); in mode
    "nonnegative" the same shell is (0, 1), (1, 0).  Mode "half" raises
    ValueError: this walk is the reference the half is checked against.
    """
    _check_shell_args(dimension, radius, mode)
    nonneg = mode == "nonnegative"

    def rec(prefix, dims_left, budget):
        if dims_left == 1:
            if budget == 0:
                yield prefix + (0,)
            elif nonneg:
                yield prefix + (budget,)
            else:
                yield prefix + (-budget,)
                yield prefix + (budget,)
            return
        lo = 0 if nonneg else -budget
        for first in range(lo, budget + 1):
            yield from rec(prefix + (first,), dims_left - 1, budget - abs(first))

    yield from rec((), dimension, radius)


def points_up_to(dimension, radius, mode="all"):
    """All points with l1norm <= radius, ordered by shell then lex."""
    for d in range(radius + 1):
        yield from shell_points(dimension, d, mode)


def trailing_pairs(progressions, D, b, cx, cy, free):
    """The last two coordinates (x, y) of a shell member, sorted.

    Those with |x| + |y| = b and (x - cx, y - cy) in the lattice spanned by
    (D, a) and (0, E), the trailing 2x2 Hermite block; free keeps only
    x < 0, or x = 0, y = -b.  Each entry of progressions is one sign pattern
    (sx, sy) of (x, y) solved as an arithmetic progression in x (see
    lattice_shell_points).  The answer depends on (cx, cy) only through its
    residue modulo that lattice.
    """
    hits = []
    for sx, sy, g, period, inverse, step in progressions:
        if free and sx > 0 and sy > 0:
            continue
        beta = sy * b - sx * sy * cx - cy
        if beta % g:
            continue
        x0 = cx + D * (beta // g * inverse % period)
        # x ranges over [-b, -1] or [0, b]; y = 0 only on the y > 0 pass
        lo, hi = (-b, -1) if sx < 0 else (0, b)
        if sy < 0:
            lo, hi = (lo + 1, hi) if sx < 0 else (lo, hi - 1)
        if free and sx > 0:
            hi = min(hi, 0)
        for x in range(lo + (x0 - lo) % step, hi + 1, step):
            hits.append((x, sy * (b - sx * x)))
    hits.sort()
    return hits


def lattice_shell_points(L, radius, mode="all"):
    """Yield the members of L with l1norm == radius, lexicographically ascending.

    Exactly [v for v in shell_points(L.dimension, radius, mode) if v in L],
    without visiting the non-members; mode "half" keeps of the "all" shell
    only the members whose first nonzero coordinate is negative.  L.columns
    is lower triangular, so the Hermite residue of coordinate i depends only
    on v[0..i]: coordinate i must be congruent to the carried reduction of
    the prefix modulo the pivot d_i, and each admissible value of it extends
    the carry by one column.  On the last two coordinates, |x| + |y| = b
    plus both divisibility conditions leave at most four arithmetic
    progressions in x (sign of x times sign of y), each solved with one
    modular inverse (trailing_pairs).

    That solve depends on the prefix only through the budget b, the free
    flag below and the residue of the carries (cx, cy) modulo the trailing
    block (D, a; 0, E).  Where the prefixes outnumber those keys, at most
    (radius + 1) * D * E of them, it runs once per key and its sorted pairs
    are kept in a dict that lives for this call only.  Elsewhere nearly
    every prefix would add a key of its own, so each prefix is solved
    directly and the walk streams in O(m) memory.  The last prefix
    coordinate is fused with the pair: it steps only the two carries and
    yields prefix + pair off the solved list, with no generator per prefix.

    The half is pruned in the recursion, not filtered: while the prefix is
    all zero (free), a coordinate runs over [-budget, 0] only, and the last
    two drop the x > 0 progressions but keep x = 0, y = -b.
    """
    m = L.dimension
    _check_shell_args(m, radius, mode, LATTICE_MODES)
    cols = L.columns
    nonneg = mode == "nonnegative"
    half = mode == "half"
    if m == 1:
        if radius % cols[0][0] == 0:
            if radius == 0:
                if not half:
                    yield (0,)
            elif nonneg:
                yield (radius,)
            else:
                yield (-radius,)
                if not half:
                    yield (radius,)
        return

    # Last two coordinates x, y with carries cx, cy: x = cx + D t for an
    # integer t, then y - cy - a t must vanish mod E.  Writing
    # y = sy * (b - sx * x) turns that into alpha t = beta (mod E) with
    # alpha = sx * sy * D + a, where only beta depends on the prefix.
    D, a, E = cols[m - 2][m - 2], cols[m - 2][m - 1], cols[m - 1][m - 1]
    signs = ((1, 1),) if nonneg else ((-1, -1), (-1, 1), (1, -1), (1, 1))
    progressions = []
    for sx, sy in signs:
        alpha = sx * sy * D + a
        g = gcd(alpha, E)
        period = E // g
        inverse = pow(alpha // g, -1, period)
        progressions.append((sx, sy, g, period, inverse, D * period))
    if m == 2:
        yield from trailing_pairs(progressions, D, radius, 0, 0, half)
        return
    # Keep solves where the expected prefixes, ball_count(m - 2, radius) *
    # D * E / index (the pivots d_0 .. d_{m-3} multiply to index / (D * E)),
    # are at least the keys, (radius + 1) * D * E.
    reuse = ball_count(m - 2, radius, mode) >= (radius + 1) * L.index
    memo = {} if reuse else None

    def rec(prefix, i, budget, carry, free):
        col = cols[i]
        d = col[i]
        lo = 0 if nonneg else -budget
        start = lo + (carry[0] - lo) % d
        q = (start - carry[0]) // d
        stop = (0 if free else budget) + 1
        if i == m - 3:
            # the last prefix coordinate: step only the pair's carries
            tx, ty = col[m - 2], col[m - 1]
            cx, cy = carry[1] + q * tx, carry[2] + q * ty
            for first in range(start, stop, d):
                b, f = budget - abs(first), free and first == 0
                if memo is None:
                    hits = trailing_pairs(progressions, D, b, cx, cy, f)
                else:
                    u = cx // D
                    key = b, cx - D * u, (cy - a * u) % E, f
                    hits = memo.get(key)
                    if hits is None:
                        hits = memo[key] = trailing_pairs(progressions, D, *key) or ()
                if hits:
                    yield from map((prefix + (first,)).__add__, hits)
                cx += tx
                cy += ty
            return
        tail = col[i + 1:]
        nxt = [c + q * t for c, t in zip(carry[1:], tail)]
        for first in range(start, stop, d):
            yield from rec(prefix + (first,), i + 1, budget - abs(first), nxt,
                           free and first == 0)
            nxt = [c + t for c, t in zip(nxt, tail)]

    yield from rec((), 0, radius, [0] * m, half)


def lattice_points_up_to(L, radius, mode="all"):
    """Members of L with l1norm <= radius, ordered by shell then lex."""
    return [v for d in range(radius + 1) for v in lattice_shell_points(L, d, mode)]


def ball_count(dimension, radius, mode="all"):
    """Closed-form number of points with l1norm <= radius (dimension >= 0).

    In mode "half", the all-zero point and half of the others.
    """
    if mode == "nonnegative":
        return comb(radius + dimension, dimension)
    n = sum(2 ** k * comb(dimension, k) * comb(radius, k) for k in range(dimension + 1))
    return (n + 1) // 2 if mode == "half" else n


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
