"""Exact sparse linear algebra over the rationals.

Everything downstream (ideal graded pieces, biideals, quadratic duals, axiom
checks) reduces to one type, the Subspace, built by row reduction.  Scalars
are exact rationals: a Python int where the value is integral and a Fraction
otherwise, never a float.  Vectors are sparse rows: plain dicts mapping
column index to a nonzero scalar.  Subspaces are kept in reduced row echelon
form, which is canonical, so two subspaces are equal iff their stored bases
are identical.

Internally, rows are scaled to integers and reduced by cross-multiplication
(a fraction-free Gaussian elimination) with gcd cleanup after every step;
int rows enter by add_ints, without the Fraction scan.  Back-substitution
runs from the last pivot to the first, so every row used to clear a pivot
column is already clean.  Fractions only reappear when a finished basis is
normalized to pivot 1 and a lead does not divide its row.  A subspace's
Projection onto its cosets (reduction, membership and, read by free column,
the orthogonal complement) holds int rows over one denominator D: a zero
test never divides, and a value divides once per output key.
"""

from fractions import Fraction
from math import gcd, lcm


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


def int_where_integral(x):
    """An int or Fraction x as the scalar policy holds it: an int where integral."""
    return x.numerator if x.denominator == 1 else x


def divided(table, denom):
    """table with each value divided by denom, ints where integral; table itself if denom is 1."""
    if denom == 1:
        return table
    return {key: int_where_integral(Fraction(v, denom)) for key, v in table.items()}


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

    add() keeps rows forward-reduced only; finalize() back-reduces and
    normalizes pivots to 1, yielding a canonical Subspace.
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
        basis = []
        for p in pivots:
            row = clean[p]
            lead = row[p]
            basis.append({c: v // lead if v % lead == 0 else Fraction(v, lead)
                          for c, v in row.items()})
        return Subspace(self.ambient_dim, basis, pivots)


class Subspace:
    """A subspace of k^n held as a canonical reduced-echelon basis."""

    def __init__(self, ambient_dim, basis_rows, pivots):
        self.ambient_dim = ambient_dim
        self.basis = tuple(basis_rows)
        self.pivots = tuple(pivots)
        self._projection = None

    @classmethod
    def from_rows(cls, ambient_dim, rows):
        ech = Echelon(ambient_dim)
        for row in rows:
            ech.add(row)
        return ech.finalize()

    @property
    def dim(self):
        return len(self.basis)

    def projection(self):
        """The Projection onto the cosets of this subspace, built on first use and then kept."""
        if self._projection is None:
            self._projection = Projection(self)
        return self._projection

    def reduce(self, vec):
        """Canonical residue of vec modulo this subspace.

        The result is supported on non-pivot columns; it is zero iff
        vec lies in the subspace.
        """
        proj = self.projection()
        return {proj.cols[k]: x for k, x in proj.image(vec).items()}

    def contains(self, vec):
        return not mat_vec(self.projection().rows, vec)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


class Projection:
    """The projection of k^n onto the cosets of a subspace, in coset coordinates.

    cols lists the non-pivot columns, the coset basis; denom is the lcm of
    the basis's denominators, and rows[m] the int row denom * pi(e_m), which
    for a pivot m is -denom times row m without its pivot entry.  Read-only."""

    def __init__(self, subspace):
        piv = dict(zip(subspace.pivots, subspace.basis))
        self.cols = [m for m in range(subspace.ambient_dim) if m not in piv]
        pos = {m: k for k, m in enumerate(self.cols)}
        denom = lcm(1, *{x.denominator for row in subspace.basis for x in row.values()})
        self.rows = [{pos[c]: int(-x * denom) for c, x in piv[m].items() if c != m} if m in piv
                     else {pos[m]: denom} for m in range(subspace.ambient_dim)]
        self.denom = denom

    def image(self, vec):
        """The exact coset coordinates of vec."""
        return divided(mat_vec(self.rows, vec), self.denom)


def subspace_equal(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a == b
