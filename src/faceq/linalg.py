"""Exact sparse linear algebra over the rationals.

Everything downstream (ideal graded pieces, biideals, quadratic duals, axiom
checks) reduces to one type, the Subspace, built by row reduction.  Scalars
are exact rationals: a Python int where the value is integral and a Fraction
otherwise, never a float.  Vectors are sparse rows: plain dicts mapping
column index to a nonzero scalar.  Subspaces are kept in reduced row echelon
form, which is canonical, so two subspaces are equal iff their stored bases
are identical.  A subspace's residue table gives reduction and membership,
and read by free column it spans the orthogonal complement.

Internally, rows are scaled to integers and reduced by cross-multiplication
(a fraction-free Gaussian elimination) with gcd cleanup after every step.
Back-substitution runs from the last pivot to the first, so every row used
to clear a pivot column is already clean.  Fractions only reappear when a
finished basis is normalized to pivot 1 and a lead does not divide its row.
"""

from fractions import Fraction
from math import gcd


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


def int_row(row):
    """The primitive int-valued positive multiple of row, zero entries dropped."""
    ints = {c: x for c, x in row.items() if x}
    if any(type(x) is not int for x in ints.values()):
        denom_lcm = 1
        for x in ints.values():
            d = x.denominator
            denom_lcm = denom_lcm // gcd(denom_lcm, d) * d
        ints = {c: int(x * denom_lcm) for c, x in ints.items()}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


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

    def rows(self):
        """Snapshot of the current (forward-reduced) rows as plain dicts."""
        return [dict(row) for row in self.pivot_rows.values()]

    def add(self, row):
        """Insert a sparse row (Fraction or int values). True iff rank grew."""
        work = int_row(row)
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
        self._residues = None

    @classmethod
    def from_rows(cls, ambient_dim, rows):
        ech = Echelon(ambient_dim)
        for row in rows:
            ech.add(row)
        return ech.finalize()

    @property
    def dim(self):
        return len(self.basis)

    def residues(self):
        """Residue of each unit vector e_j, built on first use and then kept.

        In reduced echelon form the residue of a pivot column e_p is minus
        row p without its pivot entry; a non-pivot column is its own residue.
        Callers read the entries and must not change them.
        """
        if self._residues is None:
            table = [{j: 1} for j in range(self.ambient_dim)]
            for p, row in zip(self.pivots, self.basis):
                table[p] = {c: -x for c, x in row.items() if c != p}
            self._residues = table
        return self._residues

    def reduce(self, vec):
        """Canonical residue of vec modulo this subspace.

        The result is supported on non-pivot columns; it is zero iff
        vec lies in the subspace.
        """
        return mat_vec(self.residues(), vec)

    def contains(self, vec):
        return not self.reduce(vec)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def subspace_equal(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a == b
