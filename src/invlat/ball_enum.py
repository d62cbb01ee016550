"""Enumeration of integer points by L1 shells.

Shells of the cross-polytope are walked in lexicographic order, either over
all orthants or restricted to the nonnegative orthant.  The generation
search behind bfield and bfieldr, whose half walk also gives the successive
minima, consumes points in exactly this order, which is what pins down
witness tie-breaking; the dspan search reproduces the same order without
walking shells.

The searches walk lattice members directly.  Each search holds one
shell_walker, whose walk(d) yields the members of L on shell d in the same
shell-then-lex order without visiting the non-members: it streams, carrying
the Hermite reduction of each prefix and solving the last two coordinates
per prefix.  Besides the full and the nonnegative orthant it walks half of
the full shell: the members whose first nonzero coordinate is negative.
L = -L and -v precedes v in lex order, so a search that only asks whether v
grows what it has seen loses nothing by skipping v.  shell_points followed
by `v in L` (and, for the half, by the sign of the first nonzero coordinate)
stays as the slow reference it must agree with.

A search that holds a form f, and only asks for the members off ker f,
passes (f, g) to walk, g the gcd of f over L, which divides f . v for every
member v.  A prefix v_0 .. v_{i-1} with s = f_0 v_0 + .. + f_{i-1} v_{i-1}
and budget b completes only to |f . v| <= |s| + b * max_{k >= i} |f_k|, so
where that is below g every completion has f . v = 0 and the prefix is
dropped: the depth-first prune of Fincke-Pohst.  At the root (s = 0,
b = radius) the test is the searches' skip of the shells below
ceil(g / max |f_i|).
"""

from __future__ import annotations

from math import gcd

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
    shell_walker).  The answer depends on (cx, cy) only through its
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


def shell_walker(L, mode="all"):
    """Return walk(radius, form=None), the members of L with l1norm ==
    radius, sorted.

    walk(d) is exactly [v for v in shell_points(L.dimension, d, mode) if v in
    L], without visiting the non-members; mode "half" keeps of the "all"
    shell only the members whose first nonzero coordinate is negative.  It
    keeps nothing from one shell to the next.

    walk(d, (f, g)), g the gcd of the form f over L.columns, drops the
    prefixes that cannot leave ker f (see the module docstring): it yields,
    in the same order, a subsequence of walk(d) that holds every member v
    with f . v != 0.  It carries f . prefix next to the Hermite carry, and
    tests the bound at every prefix coordinate, the last one fused with the
    pair included; m <= 2 ignores the form.

    The walk carries the Hermite reduction of each coordinate
    prefix down the recursion.  L.columns is lower triangular, so coordinate
    i must be congruent to the carried reduction of the prefix modulo the
    pivot d_i, and each admissible value of it extends the carry by one
    column.  On the last two coordinates, |x| + |y| = b plus both
    divisibility conditions leave at most four arithmetic progressions in x,
    each solved with one modular inverse (trailing_pairs).  The last prefix
    coordinate is fused with the pair: it steps only the two carries and
    yields prefix + pair off the solved list, with no generator per prefix.

    The half is pruned in the recursion, not filtered: while the prefix is
    all zero (free), a coordinate runs over [-budget, 0] only, and the last
    two drop the x > 0 progressions but keep x = 0, y = -b.
    """
    m = L.dimension
    _check_shell_args(m, 0, mode, LATTICE_MODES)
    cols = L.columns
    nonneg = mode == "nonnegative"
    half = mode == "half"

    if m == 1:
        def walk(radius, form=None):
            _check_shell_args(m, radius, mode, LATTICE_MODES)
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
        return walk

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

    def stream(prefix, i, budget, carry, free, s, prune):
        col = cols[i]
        d = col[i]
        lo = 0 if nonneg else -budget
        start = lo + (carry[0] - lo) % d
        q = (start - carry[0]) // d
        stop = (0 if free else budget) + 1
        if prune:
            # s is f . prefix; the prefix extended by first is dropped when
            # |s + f_i first| + (budget - |first|) * tops[i + 1] < g
            f, tops, g = prune
            fi, top = f[i], tops[i + 1]
        if i == m - 3:
            # the last prefix coordinate: step only the pair's carries
            tx, ty = col[m - 2], col[m - 1]
            cx, cy = carry[1] + q * tx, carry[2] + q * ty
            for first in range(start, stop, d):
                b = budget - abs(first)
                if not prune or abs(s + fi * first) + b * top >= g:
                    hits = trailing_pairs(progressions, D, b, cx, cy, free and first == 0)
                    if hits:
                        yield from map((prefix + (first,)).__add__, hits)
                cx += tx
                cy += ty
            return
        tail = col[i + 1:]
        nxt = [c + q * t for c, t in zip(carry[1:], tail)]
        for first in range(start, stop, d):
            b = budget - abs(first)
            if not prune or abs(s + fi * first) + b * top >= g:
                yield from stream(prefix + (first,), i + 1, b, nxt, free and first == 0,
                                  s + fi * first if prune else 0, prune)
            nxt = [c + t for c, t in zip(nxt, tail)]

    def walk(radius, form=None):
        _check_shell_args(m, radius, mode, LATTICE_MODES)
        if m == 2:
            yield from trailing_pairs(progressions, D, radius, 0, 0, half)
        elif form is not None:
            f, g = form
            tops = [0] * (m + 1)
            for i in reversed(range(m)):
                tops[i] = max(tops[i + 1], abs(f[i]))
            if radius * tops[0] >= g:
                yield from stream((), 0, radius, [0] * m, half, 0, (f, tops, g))
        else:
            yield from stream((), 0, radius, [0] * m, half, 0, None)

    return walk
