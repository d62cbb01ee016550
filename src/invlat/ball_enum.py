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
dropped: the depth-first prune of Fincke-Pohst.  The searches skip the
shells below ceil(g / max |f_i|) themselves; on a walk of one of those the
first coordinate (s = 0, b = radius) already drops every prefix.

On a lattice presented by one row mod n (every single-row system) with
m >= 3, the walk also prunes by reachability: the walker keeps, per suffix
start j and budget b, the set of labels row[j:] . u mod n over the suffixes
u of norm b as an n-bit int (reach_tables), and continues a prefix of label
l only if -l mod n is in the set for its budget.  Every prefix it visits
then completes to a member, so no pair solve comes back empty (in the half,
at most the free prefix's: the tables of "all" hold a superset of what it
reaches).  The test is ANDed with the form prune.  Tables that would hold
more than REACH_BITS bits are not built: multi-row presentations, bare
bases and the shells of large n walk without the test.
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


REACH_BITS = 1 << 19  # the most bits the label tables of one walker hold


def reach_tables(row, n, nonneg):
    """Return reach(radius): the label tables of row mod n, grown up to
    radius, or None once they would hold more than REACH_BITS bits.

    reach(radius)[j][b], for 1 <= j <= m and b <= radius, is an n-bit int
    whose bit t is set iff some suffix u of norm exactly b over coordinates
    j.. (nonnegative ones in mode nonnegative) has row[j:] . u = t mod n.
    With P[j][b] and N[j][b] the labels of the suffixes with u_j >= 1 and
    u_j <= -1, and rot(x, c) the rotation of the n bits by c,
      P[j][b] = rot(R[j + 1][b - 1] | P[j][b - 1], row_j)
      N[j][b] = rot(R[j + 1][b - 1] | N[j][b - 1], -row_j)
      R[j][b] = R[j + 1][b] | P[j][b] | N[j][b]
    so each (j, b) costs a few int operations; only the last P and N are
    kept.  The tables of mode "all" serve "half" too.
    """
    m = len(row)
    tables = [[] for _ in range(m + 1)]
    pos, neg = [0] * m, [0] * m

    def reach(radius):
        if n * m * (radius + 1) > REACH_BITS:
            return None
        full = (1 << n) - 1
        for b in range(len(tables[m]), radius + 1):
            below = int(b == 0)
            tables[m].append(below)
            for j in range(m - 1, 0, -1):
                if b:
                    c, last = row[j], tables[j + 1][b - 1]
                    x = last | pos[j]
                    pos[j] = (x << c | x >> n - c) & full
                    if not nonneg:
                        x = last | neg[j]
                        neg[j] = (x >> c | x << n - c) & full
                below |= pos[j] | neg[j]
                tables[j].append(below)
        return tables

    return reach


def shell_walker(L, mode="all"):
    """Return walk(radius, form=None), the members of L with l1norm ==
    radius, sorted.

    walk(d) is exactly [v for v in shell_points(L.dimension, d, mode) if v in
    L], without visiting the non-members; mode "half" keeps of the "all"
    shell only the members whose first nonzero coordinate is negative.  It
    keeps nothing from one shell to the next but the label tables, grown
    to the largest radius asked.

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

    With one modulus n it also carries want = -(row . prefix) mod n and
    drops a prefix whose want the label tables do not reach on its budget,
    the last prefix coordinate included, so a dead prefix costs no solve.
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

    rows, moduli = L.presentation
    row, n = rows[0], moduli[0]
    reach = reach_tables(row, n, nonneg) if len(moduli) == 1 else lambda radius: None

    def stream(prefix, i, budget, carry, free, s, prune, want, tables):
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
        if tables:
            # want is -(row . prefix) mod n; the prefix extended by first is
            # dropped when no suffix of norm b reaches want - row_i first
            sets, step = tables[i + 1], row[i] * d
            want = (want - row[i] * start) % n
        if i == m - 3:
            # the last prefix coordinate: step only the pair's carries
            tx, ty = col[m - 2], col[m - 1]
            cx, cy = carry[1] + q * tx, carry[2] + q * ty
            for first in range(start, stop, d):
                b = budget - abs(first)
                if (not prune or abs(s + fi * first) + b * top >= g) and \
                        (not tables or sets[b] >> want & 1):
                    hits = trailing_pairs(progressions, D, b, cx, cy, free and first == 0)
                    if hits:
                        yield from map((prefix + (first,)).__add__, hits)
                cx += tx
                cy += ty
                if tables:
                    want = (want - step) % n
            return
        tail = col[i + 1:]
        nxt = [c + q * t for c, t in zip(carry[1:], tail)]
        for first in range(start, stop, d):
            b = budget - abs(first)
            if (not prune or abs(s + fi * first) + b * top >= g) and \
                    (not tables or sets[b] >> want & 1):
                yield from stream(prefix + (first,), i + 1, b, nxt, free and first == 0,
                                  s + fi * first if prune else 0, prune, want, tables)
            nxt = [c + t for c, t in zip(nxt, tail)]
            if tables:
                want = (want - step) % n

    def walk(radius, form=None):
        _check_shell_args(m, radius, mode, LATTICE_MODES)
        if m == 2:
            yield from trailing_pairs(progressions, D, radius, 0, 0, half)
            return
        prune = None
        if form is not None:
            f, g = form
            prune = (f, [max(map(abs, f[i:]), default=0) for i in range(m + 1)], g)
        yield from stream((), 0, radius, [0] * m, half, 0, prune, 0, reach(radius))

    return walk
