"""Exact degree bounds of a full-rank lattice L in Z^m.

Three quantities, each found by exhaustive shell search with proven caps:

* dspan(L): least d such that the nonnegative points of norm <= d hit every
  coset of L in Z^m.  At most index - 1.
* bfield(L): least d such that the nonnegative members of L with norm <= d
  generate L over Z.  At most index.
* bfieldr(L): the same with members from all orthants.  At most bfield(L).

Values are exact, not bounds; witnesses are deterministic, the first hit in
shell-then-lexicographic order.  bfield and bfieldr walk the lattice members
of each shell directly (ball_enum.lattice_shell_points), in that same order;
dspan walks every nonnegative point, since each one keys a coset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .ball_enum import lattice_shell_points, shell_points
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

    witnesses is a dict {coset key: minimal nonnegative representative} for
    dspan and a tuple of generating vectors for bfield/bfieldr.  Keys are the
    canonical box residues of L.reduce; the CLI re-keys them by congruence
    labels when the lattice came from a system.
    """

    which: str
    value: int
    witnesses: object
    index: int
    search_cap: int

    def to_jsonable(self):
        if self.which == "dspan":
            wit = {
                ",".join(str(t) for t in key): list(vec)
                for key, vec in self.witnesses.items()
            }
        else:
            wit = [list(v) for v in self.witnesses]
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
    """Spanning degree: shells of nonnegative points, keyed by coset.

    The first nonnegative point seen in each coset is its minimal-norm,
    lexicographically least representative; the answer is the shell on which
    the last of the index cosets is first covered.
    """
    if cap is None:
        cap = L.index - 1
    target = L.index
    seen = {}
    for d in range(cap + 1):
        for v in shell_points(L.dimension, d, "nonnegative"):
            key = L.reduce(v)
            if key not in seen:
                seen[key] = v
        if len(seen) == target:
            return DegreeBoundReport("dspan", d, seen, L.index, cap)
    raise CapExceededError("dspan", cap)


def _generation_search(L, mode, which, cap):
    acc = GeneratedLattice(L.dimension)
    witnesses = []
    for d in range(cap + 1):
        for v in lattice_shell_points(L, d, mode):
            if v not in acc:
                acc.add(v)
                witnesses.append(v)
        if acc.rank == L.dimension and acc.index == L.index:
            return DegreeBoundReport(which, d, tuple(witnesses), L.index, cap)
    raise CapExceededError(which, cap)


def bfield(L, cap=None) -> DegreeBoundReport:
    """Least d with a nonnegative generating set of L inside norm d.

    Witnesses are the vectors that strictly grew the generated sublattice,
    so they generate exactly what all nonnegative members up to d generate.
    """
    if cap is None:
        cap = L.index
    return _generation_search(L, "nonnegative", "bfield", cap)


def bfieldr(L, cap=None) -> DegreeBoundReport:
    """Least d with an any-sign generating set of L inside norm d."""
    if cap is None:
        cap = L.index
    return _generation_search(L, "all", "bfieldr", cap)


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
