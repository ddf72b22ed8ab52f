"""Exact sparse linear algebra over the rationals.

Everything downstream (ideal graded pieces, biideals, quadratic duals, axiom
checks) reduces to one type, the Subspace, built by row reduction.  Scalars
are exact rationals: a Python int where the value is integral and a Fraction
otherwise, never a float.  Vectors are sparse rows: plain dicts mapping
column index to a nonzero scalar.  Rows are scaled to integers and reduced
by cross-multiplication (a fraction-free Gaussian elimination) with gcd
cleanup after every step; int rows enter by add_ints, without the Fraction
scan.  Back-substitution runs from the last pivot to the first, so every row
used to clear a pivot column is already clean.  A Subspace keeps the result,
primitive int rows with positive pivot entries, in reduced echelon form:
that is canonical, so two subspaces are equal iff their int rows are.  Its
Projection onto the cosets (reduction, membership and, read by free column,
the orthogonal complement) scales those rows to one denominator D, the lcm
of the pivot entries: a zero test never divides, and a value divides once
per output key.  divided() is the one rule that divides: an int where the
quotient is exact, else a Fraction by rational(), the library's one way to
build a Fraction from ints or text, which imports fractions on its first
call, so a run over integers never loads it.  A Subspace never changes,
so its Projection and its pivot-1 basis, divided from the int rows, are
cached properties; only the edges read that basis: report text, the
coaction relations, the quadratic dual's rows and base-iso candidates.
"""

from functools import cached_property
from math import gcd, lcm


def rational(numerator, denominator=None):
    """Fraction(numerator, denominator); fractions is imported on the first call."""
    from fractions import Fraction
    return Fraction(numerator, denominator)


def bump(table, key, value):
    """Add value at key of a sparse dict, dropping the key if the sum cancels."""
    s = table.get(key, 0) + value
    if s:
        table[key] = s
    else:
        table.pop(key, None)


def mat_vec(columns, vec):
    """Sparse matrix-vector product: the sum over c of vec[c] * columns[c]."""
    out = {}
    for c, x in vec.items():
        for m, y in columns[c].items():
            bump(out, m, x * y)
    return out


def apply_legs(element, left, right):
    """(L (x) R)(t) for a tensor element t = {(x, y): c}, as {(m, n): scalar}.

    left and right map an index to a sparse row, read with .get; a missing
    or empty row counts as zero.  Cancelled terms are dropped.
    """
    lget, rget = left.get, right.get
    out = {}
    for (x, y), c in element.items():
        lx, ry = lget(x), rget(y)
        if not lx or not ry:
            continue
        for m, cm in lx.items():
            ccm = c * cm
            for n, cn in ry.items():
                key = (m, n)
                out[key] = out.get(key, 0) + ccm * cn
    if not all(out.values()):
        out = {key: v for key, v in out.items() if v}
    return out


def int_where_integral(x):
    """An int or Fraction x as the scalar policy holds it: an int where integral."""
    return x.numerator if x.denominator == 1 else x


def divided(table, denom):
    """table with each value divided by denom, ints where integral; table itself if denom is 1."""
    if denom == 1:
        return table
    return {key: v // denom if v % denom == 0 else rational(v, denom) for key, v in table.items()}


def int_row(row):
    """row times the lcm of its denominators, an int row, zero entries dropped."""
    if all(type(x) is int for x in row.values()):
        return {c: x for c, x in row.items() if x}
    scale = lcm(*(x.denominator for x in row.values()))
    return {c: int(x * scale) for c, x in row.items() if x}


def _combine(a, row, b, piv):
    """a*row - b*piv over ints, gcd-normalized; used for one elimination step."""
    out = {}
    for c, v in row.items():
        out[c] = a * v
    for c, v in piv.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


class Echelon:
    """Incremental row echelon accumulator over integer-scaled rows.

    add() keeps rows forward-reduced only; finalize() back-reduces, yielding
    a canonical Subspace of primitive int rows with positive pivots.
    """

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.pivot_rows = {}  # pivot column -> int row dict

    @property
    def rank(self):
        return len(self.pivot_rows)

    def add(self, row):
        """Insert a sparse row (Fraction or int values). True iff rank grew."""
        return self.add_ints(int_row(row))

    def add_ints(self, row):
        """add() for a row of nonzero ints, which the echelon may keep as it is."""
        g = gcd(*row.values())
        work = {c: v // g for c, v in row.items()} if g > 1 else row
        while work:
            col = min(work)
            piv = self.pivot_rows.get(col)
            if piv is None:
                if work[col] < 0:
                    work = {c: -v for c, v in work.items()}
                self.pivot_rows[col] = work
                return True
            work = _combine(piv[col], work, work[col], piv)
        return False

    def finalize(self):
        """Back-substitution, last pivot first; returns the canonical Subspace.

        Each row clears the later pivot columns it holds with rows that are
        already clean (pivot plus non-pivot columns), so none comes back.
        """
        pivots = sorted(self.pivot_rows)
        clean = {}
        for p in reversed(pivots):
            row = self.pivot_rows[p]
            for q in [c for c in row if c in clean]:
                piv = clean[q]
                row = _combine(piv[q], row, row[q], piv)
            clean[p] = row
        return Subspace(self.ambient_dim, [clean[p] for p in pivots], pivots)


class Subspace:
    """A subspace of k^n as reduced-echelon int_rows: primitive, each with a
    positive entry at its pivot and zeros at the other pivots."""

    def __init__(self, ambient_dim, int_rows, pivots):
        self.ambient_dim = ambient_dim
        self.int_rows = tuple(int_rows)
        self.pivots = tuple(pivots)

    @cached_property
    def basis(self):
        """int_rows divided by their pivot entries."""
        return tuple(divided(row, row[p]) for p, row in zip(self.pivots, self.int_rows))

    @classmethod
    def from_rows(cls, ambient_dim, rows):
        ech = Echelon(ambient_dim)
        for row in rows:
            ech.add(row)
        return ech.finalize()

    @property
    def dim(self):
        return len(self.int_rows)

    @cached_property
    def projection(self):
        """The Projection onto the cosets of this subspace."""
        return Projection(self)

    def reduce(self, vec):
        """Canonical residue of vec modulo this subspace.

        The result is supported on non-pivot columns; it is zero iff
        vec lies in the subspace.
        """
        proj = self.projection
        return {proj.cols[k]: x for k, x in proj.image(vec).items()}

    def contains(self, vec):
        return not mat_vec(self.projection.rows, vec)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.int_rows == other.int_rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


class Projection:
    """The projection of k^n onto the cosets of a subspace, in coset coordinates.

    cols lists the non-pivot columns, the coset basis; denom is the lcm of
    the pivot entries a_m; rows is {m: int row denom * pi(e_m)} over all m,
    for a pivot m -(denom // a_m) times int row m without a_m.  Read-only."""

    def __init__(self, subspace):
        piv = dict(zip(subspace.pivots, subspace.int_rows))
        self.cols = [m for m in range(subspace.ambient_dim) if m not in piv]
        pos = {m: k for k, m in enumerate(self.cols)}
        denom = lcm(1, *(row[p] for p, row in piv.items()))
        self.rows = {m: {pos[c]: -(denom // piv[m][m]) * x for c, x in piv[m].items() if c != m}
                     if m in piv else {pos[m]: denom} for m in range(subspace.ambient_dim)}
        self.denom = denom

    def image(self, vec):
        """The exact coset coordinates of vec."""
        return divided(mat_vec(self.rows, vec), self.denom)
