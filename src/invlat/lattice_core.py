"""Exact integer-lattice foundation.

Full-rank sublattices of Z^m in a canonical column-style Hermite form,
kernels of congruence systems, membership and coset arithmetic, and the
trivial/duplicate-coordinate cleanup that the degree-bound theory assumes.

Everything here runs on Python's arbitrary-precision integers.  No floats,
no numpy: canonical forms and indices must be exact no matter how large the
entries get.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class InvalidSystemError(ValueError):
    """Malformed congruence system (bad moduli, ragged or out-of-range rows)."""


class InternalError(RuntimeError):
    """A failed internal invariant: a bug in invlat, not in its input."""


class AllColumnsRemovedError(ValueError):
    """Every coordinate was trivial or duplicate; nothing is left to keep."""


def l1norm(v):
    return sum(abs(x) for x in v)


def weight(v):
    """Coordinate sum of a vector (the signed degree of the monomial a ↦ x^a)."""
    return sum(v)


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _gcd_step(carrier, col, j):
    """Unimodular 2x2 column step that clears col[j] against carrier[j].

    Both vectors change from index j to their end; afterwards carrier[j] is
    gcd(carrier[j], col[j]) up to sign and col[j] is 0.  A zero carrier[j]
    takes the xgcd branch, which swaps the two up to sign.
    """
    a, b = carrier[j], col[j]
    if a and b % a == 0:
        q = b // a
        for k in range(j, len(col)):
            col[k] -= q * carrier[k]
    else:
        g, x, y = xgcd(a, b)
        aa, bb = a // g, b // g
        for k in range(j, len(col)):
            s, t = carrier[k], col[k]
            carrier[k] = x * s + y * t
            col[k] = aa * t - bb * s


def triangular_reduce(basis, v):
    """Reduce v down the lower-triangular basis.columns; LatticeBasis.reduce.

    basis.columns has one entry per row of Z^basis.dimension: a column that
    is zero above row i with a positive entry there, or None when no column
    has its pivot on row i.  Row by row, the floor quotient of that column is
    subtracted, which leaves row i in [0, pivot) and rows without a pivot as
    they were.  Two vectors reduce equally iff they differ by a member of the
    span, and v is a member iff it reduces to zero, so the reduced tuple is a
    coset key.
    """
    if len(v) != basis.dimension:
        raise ValueError("vector length does not match dimension")
    r = list(v)
    for i, col in enumerate(basis.columns):
        if col is not None:
            q = r[i] // col[i]
            if q:
                for k in range(i, basis.dimension):
                    r[k] -= q * col[k]
    return tuple(r)


def echelon_add(acc, vec):
    """Add vec to the echelon accumulator acc; GeneratedLattice.add.

    Row by row, vec is cleared against the pivot column of each row it is
    nonzero on (_gcd_step) until it is zero or reaches a row without a
    pivot, where it becomes that row's column, negated if needed so the
    pivot is positive, and acc.rank grows by one.  Every step is unimodular,
    so the columns keep spanning everything added.  hnf_columns,
    integer_kernel and is_generating call it directly, so a profiler that
    rebinds GeneratedLattice.add counts only the searches' adds.
    """
    if len(vec) != acc.dimension:
        raise ValueError("vector length does not match dimension")
    v = list(vec)
    for j, col in enumerate(acc.columns):
        if not v[j]:
            continue
        if col is None:
            acc.columns[j] = v if v[j] > 0 else [-t for t in v]
            acc.rank += 1
            return
        _gcd_step(col, v, j)


class GeneratedLattice:
    """Mutable echelon accumulator for the sublattice generated so far.

    columns is indexed by pivot row as in triangular_reduce, with positive
    pivots, and grows by echelon_add.  rank is the rank over Q of everything
    added, and the product of the pivots is the index once the rank is full.
    Used for incremental generation and independence tests in shell
    searches, and under hnf_columns, integer_kernel and is_generating.
    """

    def __init__(self, dimension):
        self.dimension = dimension
        self.columns = [None] * dimension
        self.rank = 0

    @property
    def index(self):
        if self.rank != self.dimension:
            return None
        return math.prod(self.columns[j][j] for j in range(self.dimension))

    def __contains__(self, vec):
        return not any(triangular_reduce(self, vec))

    add = echelon_add


def hnf_columns(vectors, dimension):
    """Column-style Hermite form of the span of *vectors* inside Z^dimension.

    Returns (columns, pivot_rows).  The columns are a basis of the spanned
    sublattice, one per pivot row and in pivot-row order, lower triangular:
    column j is zero above its pivot row, the pivot entry is positive, and
    every entry below a pivot is reduced into [0, pivot of that row).  For a
    full-rank input pivot_rows == [0..dimension-1] and the form is the unique
    canonical basis, so structural equality decides lattice equality.
    """
    acc = GeneratedLattice(dimension)
    for v in vectors:
        echelon_add(acc, v)
    pivot_rows = [r for r, c in enumerate(acc.columns) if c is not None]
    cols = []
    # with its own row and those above blanked, a column reduces its entries
    # at the pivot rows below into [0, pivot of that row)
    for r in pivot_rows:
        col, acc.columns[r] = acc.columns[r], None
        cols.append(triangular_reduce(acc, col))
    return cols, pivot_rows


def integer_kernel(rows, ncols):
    """Z-basis of {x in Z^ncols : M x = 0} for the integer matrix with *rows*.

    Column j of M is stacked over e_j and added to one accumulator.  The
    stacked columns are independent and the steps unimodular, so the final
    columns are a basis of the stacked lattice, and the identity-block tails
    of those whose pivot row is below the M block are a basis of the kernel
    lattice (not merely a spanning set).
    """
    ncon = len(rows)
    acc = GeneratedLattice(ncon + ncols)
    for j in range(ncols):
        echelon_add(acc, [row[j] for row in rows] + [1 if k == j else 0 for k in range(ncols)])
    return [tuple(c[ncon:]) for c in acc.columns[ncon:] if c is not None]


def _is_int(x):
    """An int that is not a bool (JSON true/false must not pass as 1/0)."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class CongruenceSystem:
    """A finite list of congruences sum_j A[i][j] * a_j = 0 (mod moduli[i]).

    Coefficients are stored reduced into [0, n_i); the constructor rejects
    anything else rather than silently normalising.  Row i of *coefficients*
    belongs to modulus moduli[i]; column j collects the residues of the j-th
    coordinate, one per modulus, and is the character of that coordinate.
    """

    moduli: tuple
    coefficients: tuple

    def __post_init__(self):
        if not isinstance(self.moduli, tuple) or not isinstance(self.coefficients, tuple):
            raise InvalidSystemError("moduli and coefficients must be tuples")
        if len(self.moduli) == 0:
            raise InvalidSystemError("at least one modulus is required")
        if any(not _is_int(n) or n < 2 for n in self.moduli):
            raise InvalidSystemError("moduli must be integers >= 2")
        if len(self.coefficients) != len(self.moduli):
            raise InvalidSystemError("one coefficient row per modulus")
        if len(self.coefficients) == 0 or any(len(row) == 0 for row in self.coefficients):
            raise InvalidSystemError("empty coefficient rows are not allowed")
        m = len(self.coefficients[0])
        for n_i, row in zip(self.moduli, self.coefficients):
            if not isinstance(row, tuple) or len(row) != m:
                raise InvalidSystemError("coefficient rows must be tuples of equal length")
            for a in row:
                if not _is_int(a):
                    raise InvalidSystemError(f"coefficient {a!r} is not an integer")
                if not 0 <= a < n_i:
                    raise InvalidSystemError(
                        f"coefficient {a!r} is not reduced into [0, {n_i})")

    @property
    def r(self):
        return len(self.moduli)

    @property
    def m(self):
        return len(self.coefficients[0])

    def column(self, j):
        """Residue tuple of coordinate j across all moduli."""
        return tuple(row[j] for row in self.coefficients)

    def label(self, v):
        """Coset label of v: the residue tuple of the congruence values."""
        if len(v) != self.m:
            raise ValueError("vector length does not match the system")
        return tuple(
            sum(a * x for a, x in zip(row, v)) % n
            for n, row in zip(self.moduli, self.coefficients)
        )

    def to_jsonable(self):
        return {"moduli": list(self.moduli),
                "coefficients": [list(r) for r in self.coefficients]}

    def to_json(self):
        return json.dumps(self.to_jsonable())

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise InvalidSystemError(f"not valid JSON: {e}") from None
        if not isinstance(data, dict) or set(data) != {"moduli", "coefficients"}:
            raise InvalidSystemError('expected an object with "moduli" and "coefficients"')
        try:
            moduli = tuple(data["moduli"])
            coefficients = tuple(tuple(row) for row in data["coefficients"])
        except TypeError:
            raise InvalidSystemError("moduli/coefficients have the wrong shape") from None
        return cls(moduli, coefficients)


@dataclass(frozen=True)
class LatticeBasis:
    """Canonical basis of a full-rank sublattice of Z^dimension.

    columns is the column-style Hermite form described in hnf_columns, so two
    LatticeBasis values are equal exactly when they present the same lattice.
    The determinant of the columns equals +index.

    presentation is (rows, moduli), congruences with kernel exactly L: the
    label of v, the residues of row . v mod n, names the coset of v.  It is
    the system's own for from_congruences, else the rows of N B^-1 mod N for
    N = index (column j is coords(N e_j)).  It takes no part in equality.
    """

    dimension: int
    columns: tuple
    index: int
    presentation: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.presentation is None:
            # N kills Z^m/L, so every N e_j is a member
            n, m = self.index, self.dimension
            cols = [self.coords([n if k == j else 0 for k in range(m)]) for j in range(m)]
            rows = tuple(tuple(c[i] % n for c in cols) for i in range(m))
            object.__setattr__(self, "presentation", (rows, (n,) * m))

    @classmethod
    def from_generators(cls, vectors, dimension=None):
        vectors = [tuple(v) for v in vectors]
        if dimension is None:
            if not vectors:
                raise ValueError("cannot infer dimension from an empty generator list")
            dimension = len(vectors[0])
        cols, pivot_rows = hnf_columns(vectors, dimension)
        if len(cols) != dimension:
            raise ValueError(
                f"generators span rank {len(cols)} < {dimension}; need a full-rank lattice")
        index = math.prod(cols[i][i] for i in range(dimension))
        return cls(dimension, tuple(cols), index)

    @classmethod
    def identity(cls, dimension):
        cols = tuple(
            tuple(1 if k == j else 0 for k in range(dimension)) for j in range(dimension)
        )
        return cls(dimension, cols, 1)

    def __contains__(self, v):
        return not any(triangular_reduce(self, v))

    # canonical coset representative of v in the box prod [0, d_i)
    reduce = triangular_reduce

    def coords(self, v):
        """Integer coordinates of a lattice member over the canonical columns."""
        if any(triangular_reduce(self, v)):
            raise ValueError("vector is not in the lattice")
        out = []
        for i, col in enumerate(self.columns):
            out.append((v[i] - sum(q * c[i] for q, c in zip(out, self.columns))) // col[i])
        return out

    def to_json(self):
        return json.dumps(
            {
                "dimension": self.dimension,
                "columns": [list(c) for c in self.columns],
                "index": self.index,
            }
        )

    @classmethod
    def from_json(cls, text):
        """The basis to_json wrote; malformed input raises a ValueError saying
        what is wrong."""
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ValueError(f"not valid JSON: {e}") from None
        if not isinstance(data, dict) or set(data) != {"dimension", "columns", "index"}:
            raise ValueError('expected an object with "dimension", "columns" and "index"')
        m, columns, index = data["dimension"], data["columns"], data["index"]
        if not _is_int(m) or m < 1:
            raise ValueError(f"dimension {m!r} is not a positive integer")
        if not _is_int(index):
            raise ValueError(f"index {index!r} is not an integer")
        if not isinstance(columns, list) or any(
                not isinstance(c, list) or len(c) != m for c in columns):
            raise ValueError(f"columns must be a list of lists of {m} integers")
        for a in (a for c in columns for a in c):
            if not _is_int(a):
                raise ValueError(f"column entry {a!r} is not an integer")
        rebuilt = cls.from_generators([tuple(c) for c in columns], dimension=m)
        if rebuilt.index != index:
            raise ValueError("stored index does not match the column data")
        return rebuilt


def from_congruences(system) -> LatticeBasis:
    """Kernel lattice {a : A a = 0 mod n, row by row} of a congruence system.

    Solved exactly: (a, k) with A a + diag(n) k = 0 over Z is an integer
    kernel computation, and projecting to the a-block generates the lattice.
    The index always equals the order of the subgroup the coefficient columns
    generate inside the direct sum of the Z_{n_i}.
    """
    m, r = system.m, system.r
    rows = []
    for i in range(r):
        row = list(system.coefficients[i]) + [0] * r
        row[m + i] = system.moduli[i]
        rows.append(row)
    # every n_i e_j is in the kernel, so the projection has full rank
    cols, _ = hnf_columns([v[:m] for v in integer_kernel(rows, m + r)], m)
    index = math.prod(cols[i][i] for i in range(m))
    return LatticeBasis(m, tuple(cols), index, (system.coefficients, system.moduli))


def is_generating(L, vectors):
    """True iff *vectors* all lie in L and generate it over Z."""
    vs = [tuple(v) for v in vectors]
    acc = GeneratedLattice(L.dimension)
    for v in vs:
        echelon_add(acc, v)
    return all(v in L for v in vs) and acc.index == L.index


@dataclass(frozen=True)
class TrivialDuplicateReport:
    trivial_indices: tuple
    duplicate_pairs: tuple

    @property
    def clean(self):
        return not self.trivial_indices and not self.duplicate_pairs


def detect_trivial_or_duplicate(L) -> TrivialDuplicateReport:
    """Find coordinates acting trivially and pairs acting identically.

    e_i in L means coordinate i carries the trivial character; e_i - e_j in L
    means coordinates i and j carry equal characters.  Indices are 0-based.
    """
    m = L.dimension
    trivial = []
    for i in range(m):
        e = tuple(1 if k == i else 0 for k in range(m))
        if e in L:
            trivial.append(i)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            d = tuple((1 if k == i else 0) - (1 if k == j else 0) for k in range(m))
            if d in L:
                pairs.append((i, j))
    return TrivialDuplicateReport(tuple(trivial), tuple(pairs))


def drop_trivial_and_duplicates(system) -> CongruenceSystem:
    """Remove zero columns and repeated columns (first occurrence kept).

    The degree bounds of the kernel lattice are unchanged by this cleanup;
    raising AllColumnsRemovedError means the representation was entirely
    trivial and there is no lattice left worth asking about.
    """
    keep = []
    seen = set()
    for j in range(system.m):
        col = system.column(j)
        if not any(col):
            continue
        if col in seen:
            continue
        seen.add(col)
        keep.append(j)
    if not keep:
        raise AllColumnsRemovedError("every column is trivial or duplicate")
    rows = tuple(tuple(row[j] for j in keep) for row in system.coefficients)
    return CongruenceSystem(system.moduli, rows)
