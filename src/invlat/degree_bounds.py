"""Exact degree bounds of a full-rank lattice L in Z^m.

Three quantities, each found by an exhaustive search with proven caps:

* dspan(L): least d such that the nonnegative points of norm <= d hit every
  coset of L in Z^m.  At most index - 1.
* bfield(L): least d such that the nonnegative members of L with norm <= d
  generate L over Z.  At most index.
* bfieldr(L): the same with members from all orthants.  At most bfield(L).

Values are exact, not bounds; witnesses are deterministic, the first hit in
shell-then-lexicographic order.  bfield and bfieldr walk the lattice members
of each shell directly, in that same order, through one ball_enum.shell_walker
per search, which streams each shell.
That walk, _generation_search, is the only one: it yields each add to the
accumulator, bfield and bfieldr run it to the add that completes L, and the
successive minima and the Mahler refinement of geomnum read the adds of
bfieldr's walk that raised the rank.
A walked member grows the accumulator iff it is not in it, a reduction over
m rows, until a shell leaves the accumulator at rank m - 1 and saturated,
equal to L ∩ ker f for the primitive form f that vanishes on it; from then
until the next add, f . v != 0 decides, one dot product per member.
A v in L off ker f has g <= |f . v| <= max |f_i| * ||v||_1, g the gcd of f
over L, so the search skips the shells below r = ceil(g / max |f_i|): on
the sharp lattices it walks shells 1..3, then r, the answer.
The same bound prunes inside a shell: the walker is given (f, g) and drops
every prefix whose completions all have |f . v| < g (ball_enum), on a shell
below r every first coordinate; on the sharp (53, 6) answer shell it yields
37 of 8,458 members.  On a one-row lattice the walker also drops every
prefix that completes to no member of the shell, by tables of the labels
its suffixes reach, so every prefix it visits completes to a member.
dspan is a breadth-first search over the coset labels of L.presentation,
one layer per norm, whose witnesses are the minimal-norm, lex-least
representatives: the points a walk of the nonnegative shells would hit first.
Each layer is generated in lex order, so no candidate is compared or
sorted; the labels are integers with one modulus (every single-row system)
and residue tuples otherwise, and only the label step tells them apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from math import gcd, prod
from operator import mul

from .ball_enum import shell_walker
from .lattice_core import GeneratedLattice


class CapExceededError(RuntimeError):
    """The search hit its radius cap before the defining condition held."""

    def __init__(self, which, cap):
        super().__init__(f"{which} search exceeded cap {cap}")
        self.which = which
        self.cap = cap


@dataclass(frozen=True)
class DegreeBoundReport:
    """One computed bound plus the evidence for it.

    witnesses is a dict {coset label: minimal nonnegative representative}
    for dspan and a tuple of generating vectors for bfield/bfieldr.  Labels
    are those of L.presentation: the residues of CongruenceSystem.label
    when the lattice came from a system, of N B^-1 v mod N on a bare basis;
    with one modulus the label is the int residue k, else a residue tuple.
    """

    which: str
    value: int
    witnesses: object
    index: int
    search_cap: int

    def to_jsonable(self):
        """Dict for json.dumps, holding the report's own witnesses: json.dumps
        writes an int label as its digits and a vector tuple as a list.  Only
        a dspan report keyed by residue tuples, which no JSON object takes,
        gets a new dict, keyed by the comma-joined residues."""
        wit = self.witnesses
        if self.which == "dspan" and type(next(iter(wit))) is tuple:
            wit = {",".join(map(str, key)): vec for key, vec in wit.items()}
        return {
            "which": self.which,
            "value": self.value,
            "witnesses": wit,
            "index": self.index,
            "search_cap": self.search_cap,
        }

    def to_json(self):
        return json.dumps(self.to_jsonable())


def dspan(L, cap=None) -> DegreeBoundReport:
    """Spanning degree: breadth-first search over the cosets Z^m/L.

    The least norm of a nonnegative point in a coset is its distance from 0
    in the Cayley digraph of Z^m/L on the unit vectors, so dspan is the
    eccentricity of 0.  Layer d+1 holds the cosets first reached from layer
    d by adding some e_i; each keeps the lexicographically least candidate
    w(k) + e_i over the witnesses w(k) of layer d.

    That candidate is the minimal-norm, lexicographically least
    representative v: for every i with v_i > 0, v - e_i is the minimal-norm,
    lexicographically least representative of its own coset (anything
    smaller, plus e_i, would undercut v), so it is some w(k).  Each layer is
    held in witness order, which is shell-then-lexicographic order.

    One loop serves every presentation, keying the witnesses by the int
    label for one modulus and by the residue tuple otherwise.
    """
    if cap is None:
        cap = L.index - 1
    d, seen = _label_bfs(L.presentation, L.index, cap)
    # d > cap only for a negative cap, which every dspan >= 0 exceeds
    if len(seen) < L.index or d > cap:
        raise CapExceededError("dspan", cap)
    return DegreeBoundReport("dspan", d, seen, L.index, cap)


def _label_bfs(presentation, index, cap):
    """dspan's BFS over the labels of presentation, in lex order.

    Let first(v) be the first nonzero coordinate of v, and first(0) = m - 1.
    A new witness v is w + e_f for f = first(v) and w = v - e_f a witness
    of the layer before, and first(w) >= f.  So stepping each w only along
    the e_i with i <= first(w) reaches every witness exactly once.  Those w
    are a prefix of the layer, which is in lex order, and a larger first(v)
    is lex-smaller: running i from m - 1 down to 0, and for each i that
    prefix in order, makes the candidates in ascending lex order.  The
    first candidate to reach a coset is its witness, so none is compared
    or sorted, and a witness w makes first(w) + 1 steps, not m.
    Nothing here depends on the form of a label: the integer row . v mod n
    with one modulus n, else the tuple of residues, one per modulus.
    """
    rows, moduli = presentation
    one = len(moduli) == 1
    steps = rows[0] if one else list(zip(*rows))
    n = moduli[0] if one else None
    m = len(steps)
    zero, k = (0,) * m, 0 if one else (0,) * len(moduli)
    seen = {k: zero}
    # ends[i] counts the witnesses of the layer with first(w) >= i
    layer, ends = [(k, zero)], [1] * m
    d = 0
    while len(seen) < index and d < cap:
        reached, reached_ends = [], [0] * m
        for i in range(m - 1, -1, -1):
            c = steps[i]
            for k, w in islice(layer, ends[i]):
                if one:
                    k = (k + c) % n
                else:
                    k = tuple([(a + s) % q for a, s, q in zip(k, c, moduli)])
                if k not in seen:
                    v = w[:i] + (w[i] + 1,) + w[i + 1:]
                    seen[k] = v
                    reached.append((k, v))
            reached_ends[i] = len(reached)
        layer, ends = reached, reached_ends
        d += 1
    return d, seen


def _generation_search(L, mode, which, cap):
    """Grow a GeneratedLattice shell by shell until it is L, yielding
    (radius, member, raised) for each add, raised when it raised acc.rank.

    Stops at the add that completes it, mid-shell: every later member of
    the shell already lies in the accumulator, so none could be a witness.
    Shell 0 holds only 0, which acc contains, so the walk starts at 1.
    While the start (in m = 1, where the empty acc is L ∩ ker f) or a
    shell's end left the accumulator saturated at rank m - 1, held is the
    pair (f, g) _saturated_form returns, and f tests each member with one
    dot product instead of a reduction; the next add drops the pair.  g,
    the gcd of f over L, is found once by the saturation test, and the
    skip r = ceil(g / max |f_i|) once per pair: while it is held, no shell
    below r holds a witness, the next is max(d + 1, r), and its walk
    prunes the prefixes that cannot leave ker f.  A walk keeps its pair
    after an add drops it: what it prunes lies in L ∩ ker f, which is
    inside the accumulator, and that only grows.
    The span of acc is the span of the adds that raised its rank, so those
    adds are the first members outside the span of the ones before: on the
    half walk, the successive minima witnesses in walk order.
    """
    acc = GeneratedLattice(L.dimension)
    walk = shell_walker(L, mode)
    d, grew = 0, True
    while True:
        if grew:
            held = _saturated_form(acc, L) if acc.rank == L.dimension - 1 else None
            skip = -(-held[1] // max(map(abs, held[0]))) if held else 0
        d = max(d + 1, skip)
        if d > cap:
            raise CapExceededError(which, cap)
        grew = False
        for v in walk(d, held):
            if (v not in acc) if held is None else sum(map(mul, held[0], v)) != 0:
                rank = acc.rank
                acc.add(v)
                yield d, v, acc.rank > rank
                if acc.index == L.index:
                    return
                held, grew = None, True


def _generation_bound(L, mode, which, cap):
    """bfield or bfieldr: _generation_search run to completion, valued at
    the radius of its last add, with every member it added as witness."""
    if cap is None:
        cap = L.index
    radii, witnesses, _ = zip(*_generation_search(L, mode, which, cap))
    return DegreeBoundReport(which, radii[-1], witnesses, L.index, cap)


def _saturated_form(acc, L):
    """(f, g) for the primitive form f vanishing on acc, a GeneratedLattice
    of rank m - 1, and g its gcd over L, if acc is all of L ∩ ker f; None
    otherwise.

    s is the one row without a pivot.  Every column right of it is zero
    above its positive pivot, so f vanishes on them only if f_k = 0 for
    k > s; the columns left of it then fix f_{s-1} .. f_0 in turn from
    f_s, by back-substitution kept integral and made primitive at the end
    (f_s stays positive).
    acc has index P / |f_s| in Z^m ∩ ker f, P the product of its pivots
    (dropping row s maps Z^m ∩ ker f onto the y with f_s | f . y), and
    0 -> (Z^m ∩ ker f)/(L ∩ ker f) -> Z^m/L -> Z/f(L) -> 0 gives
    L ∩ ker f index L.index / g there, g the gcd of f over L.  So acc is
    L ∩ ker f iff (P / |f_s|) * g == L.index.
    """
    cols = acc.columns
    s = cols.index(None)
    f = [0] * len(cols)
    f[s] = 1
    for j in range(s - 1, -1, -1):
        col = cols[j]
        t = sum(f[k] * col[k] for k in range(j + 1, s + 1))
        p = col[j]
        scale = p // gcd(t, p)
        if scale != 1:
            f = [x * scale for x in f]
            t *= scale
        f[j] = -t // p
    c = gcd(*f)
    f = [x // c for x in f]
    pivots = prod(col[j] for j, col in enumerate(cols) if col is not None)
    g = gcd(*[sum(map(mul, f, col)) for col in L.columns])
    return (f, g) if pivots // f[s] * g == L.index else None


def bfield(L, cap=None) -> DegreeBoundReport:
    """Least d with a nonnegative generating set of L inside norm d.

    Witnesses are the vectors that strictly grew the generated sublattice,
    so they generate exactly what all nonnegative members up to d generate.
    """
    return _generation_bound(L, "nonnegative", "bfield", cap)


def bfieldr(L, cap=None) -> DegreeBoundReport:
    """Least d with an any-sign generating set of L inside norm d.

    Walks half of each shell: v and -v generate the same, and -v comes
    first in lex order whenever v's first nonzero coordinate is positive.
    """
    return _generation_bound(L, "half", "bfieldr", cap)


def verify_bound_relations(L):
    """Check the proven chain bfieldr <= bfield <= 2*dspan + 1 plus the caps.

    Returns (ok, values) where values maps the three names to the computed
    numbers, so callers can report violators rather than just a boolean.
    """
    ds = dspan(L).value
    bf = bfield(L).value
    br = bfieldr(L).value
    ok = (
        br <= bf <= 2 * ds + 1
        and ds <= L.index - 1
        and bf <= L.index
    )
    return ok, {"dspan": ds, "bfield": bf, "bfieldr": br, "index": L.index}
