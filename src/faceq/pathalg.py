"""Graded path algebra elements, homogeneous ideals, quadratic data.

An ideal here is always homogeneous with generators of degree >= 2.  Its
graded pieces are those of a wba.BiidealGens over kQ (the path algebra as
a wba.GradedAlgebra): canonical subspaces over the fixed path basis, spread
up the grading by the arrows and saturated by the vertex idempotents.
"""

from fractions import Fraction

from .errors import ParseError, UnsupportedShapeError
from .linalg import Subspace
from . import quiver as qv
from . import wba


class PathElement:
    """A k-linear combination of paths of one quiver, as HomogeneousIdeal takes
    its generators; repeated paths are summed and zero sums dropped."""

    def __init__(self, q, terms=()):
        self.quiver = q
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for path, coeff in items:
            coeff = Fraction(coeff)
            if coeff:
                data[path] = data.get(path, Fraction(0)) + coeff
                if not data[path]:
                    del data[path]
        self.terms = data

    def degree(self):
        """Common path length, or None for 0 or inhomogeneous elements."""
        lengths = {p.length for p in self.terms}
        return lengths.pop() if len(lengths) == 1 else None

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, PathElement) and self.quiver == other.quiver
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "PathElement(0)"
        bits = " + ".join(f"{c}*{self.quiver.path_label(p)}" for p, c in self.terms.items())
        return f"PathElement({bits})"


class HomogeneousIdeal:
    """Two-sided graded ideal given by homogeneous generators of degree >= 2."""

    def __init__(self, q, generators):
        self.quiver = q
        gens = []
        seen = []
        for g in generators:
            if g.quiver != q:
                raise ValueError("generator lives over a different quiver")
            if g.is_zero():
                continue
            d = g.degree()
            if d is None:
                raise ValueError("ideal generators must be homogeneous")
            if d < 2:
                raise ValueError(f"ideal generators must have degree >= 2, got degree {d}")
            if g.terms in seen:
                continue
            seen.append(g.terms)
            gens.append(g)
        self.generators = tuple(gens)


def element_row(elem, index):
    """Coefficient row of a homogeneous element over an indexed path basis."""
    return {index[p]: c for p, c in elem.terms.items()}


def ideal_graded_piece(ideal, d):
    """Canonical subspace I_d inside kQ_d.

    The degree-d piece of the BiidealGens over kQ truncated at d (see
    wba.path_algebra_presentation) generated by the ideal's generators of
    degree at most d; wba.biideal_graded_pieces spreads it up the grading
    and saturates it by the vertex idempotents.
    """
    q = ideal.quiver
    index = [{p: i for i, p in enumerate(qv.enumerate_paths(q, e))} for e in range(d + 1)]
    gens = [(g.degree(), element_row(g, index[g.degree()]))
            for g in ideal.generators if g.degree() <= d]
    b = wba.BiidealGens(wba.path_algebra_presentation(q, d), gens)
    return wba.biideal_graded_pieces(b, d)


class QuadraticData:
    """A relation space R in kQ_2 (path basis) and the wba.BiidealGens it was read from.

    quadratic_dual needs R to be a kQ_0-bimodule, as I_2 of any ideal is.
    """

    def __init__(self, q, relation_space, ideal):
        self.quiver = q
        self.relation_space = relation_space
        self.ideal = ideal
        self._dual_rows = None

    @property
    def ambient_dim(self):
        return self.relation_space.ambient_dim

    def dual_rows(self):
        """quadratic_dual_rows(self), computed on the first request and then kept."""
        if self._dual_rows is None:
            self._dual_rows = quadratic_dual_rows(self)
        return self._dual_rows


def quadratic_data(ideal, max_degree=2):
    """R = I_2, the degree-2 piece of an ideal with degree-2 generators only.

    As a piece of a two-sided ideal, R is a kQ_0-bimodule, which quadratic
    duality needs: a relation joining different endpoints, like ab + cc with
    ab from u to w and the loop cc at w, puts e_u(ab + cc) = ab and
    e_w(ab + cc) = cc into R separately.  R is read from the ideal's
    BiidealGens over kQ truncated at max_degree, kept as the result's ideal.
    """
    for g in ideal.generators:
        if g.degree() != 2:
            raise UnsupportedShapeError(
                f"quadratic data requires degree-2 generators, found degree {g.degree()}")
    index = {p: i for i, p in enumerate(qv.enumerate_paths(ideal.quiver, 2))}
    b = wba.BiidealGens(wba.path_algebra_presentation(ideal.quiver, max_degree),
                        [(2, element_row(g, index)) for g in ideal.generators])
    return QuadraticData(ideal.quiver, wba.biideal_graded_pieces(b, 2), b)


def quadratic_dual_rows(qd):
    """Canonical basis of the orthogonal complement of R inside kQ_2.

    Each free column f of R's echelon basis spans one kernel vector, e_f
    plus the column-f entries of the pivot rows' projections, scaled by D.
    Rows stay on the degree-2 paths of the original quiver; quadratic_dual
    transports them to the opposite quiver.
    """
    rel = qd.relation_space
    proj = rel.projection()
    kernel = [{f: proj.denom, **{p: proj.rows[p][k] for p in rel.pivots if k in proj.rows[p]}}
              for k, f in enumerate(proj.cols)]
    return Subspace.from_rows(rel.ambient_dim, kernel).basis


def quadratic_dual(qd, max_degree=2):
    """Quadratic dual relation space R^!, on the opposite quiver.

    The pairing identifies the opposite path (pq)* = q* p* with the dual
    basis vector of pq, so R^! is the complement R^⊥ (qd.dual_rows()) moved
    along path reversal (quiver.star_indices).  As in quadratic_data, R^!
    is read as the degree-2 piece of the wba.BiidealGens its rows generate
    over kQ^op truncated at max_degree, kept as the result's ideal.  The
    vertex idempotents act on kQ_2 by self-adjoint coordinate projections,
    so R^⊥ is a kQ_0-bimodule exactly when R is; then the saturation adds
    nothing, and otherwise the piece outgrows the independent moved rows
    and UnsupportedShapeError is raised.
    """
    q = qd.quiver
    opp = qv.opposite_quiver(q)
    star = qv.star_indices(q, 2)
    moved = [{star[c]: x for c, x in row.items()} for row in qd.dual_rows()]
    b = wba.BiidealGens(wba.path_algebra_presentation(opp, max_degree),
                        [(2, row) for row in moved])
    piece = wba.biideal_graded_pieces(b, 2)
    if piece.dim != len(moved):
        raise UnsupportedShapeError(
            "quadratic dual requires a relation space that is a kQ_0-bimodule, "
            "as I_2 of an ideal is")
    return QuadraticData(opp, piece, b)


def preprojective_relations(q):
    """Vertex-local preprojective relations p_i p_i* - p_{i-1}* p_{i-1}.

    Expects a cyclic quiver on n >= 3 vertices whose i-th arrow runs from
    vertex i to vertex i+1 (mod n); the relations live on the double quiver.
    """
    n = len(q.vertices)
    if n < 3 or len(q.arrows) != n:
        raise UnsupportedShapeError("preprojective relations need a cyclic quiver with >= 3 vertices")
    for i, a in enumerate(q.arrows):
        if a.source != i or a.target != (i + 1) % n:
            raise UnsupportedShapeError(
                f"arrow {a.name} does not follow the cycle pattern i -> i+1 (mod {n})")
    dbl = qv.double_quiver(q)
    gens = []
    for i in range(n):
        j = (i - 1) % n
        pos = qv.compose_paths(dbl, dbl.arrow_path(i), dbl.arrow_path(n + i))
        neg = qv.compose_paths(dbl, dbl.arrow_path(n + j), dbl.arrow_path(j))
        gens.append(PathElement(dbl, {pos: 1, neg: -1}))
    return HomogeneousIdeal(dbl, gens)


def parse_scalar(value):
    """Accept ints and 'a/b' strings; reject floats (exactness contract)."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"coefficients must be integers or rational strings, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot read coefficient {value!r}: {exc}") from None


def parse_relations(doc, q):
    """Read a relations document: a list of relations, each a list of terms.

    Each term is an object with 'coeff' and 'path'; the path is an ordered
    list of arrow names, with trivial paths written 'e:<label>'.
    """
    if not isinstance(doc, list):
        raise ParseError("relations document must be a list of relations")
    relations = []
    for rel_no, rel in enumerate(doc):
        if not isinstance(rel, list):
            raise ParseError(f"relation #{rel_no} must be a list of terms")
        terms = []
        for term in rel:
            if not isinstance(term, dict) or "coeff" not in term or "path" not in term:
                raise ParseError(f"relation #{rel_no}: each term needs 'coeff' and 'path'")
            coeff = parse_scalar(term["coeff"])
            steps = term["path"]
            if not isinstance(steps, list) or not steps:
                raise ParseError(f"relation #{rel_no}: 'path' must be a nonempty list")
            path = None
            for step in steps:
                if isinstance(step, str) and step.startswith("e:"):
                    label = step[2:]
                    if label not in q.vertex_index:
                        raise ParseError(f"relation #{rel_no}: unknown vertex {label!r}")
                    nxt = q.trivial_path(q.vertex_index[label])
                elif isinstance(step, str) and step in q.arrow_index:
                    nxt = q.arrow_path(q.arrow_index[step])
                else:
                    raise ParseError(f"relation #{rel_no}: unknown arrow {step!r}")
                if path is None:
                    path = nxt
                else:
                    path = qv.compose_paths(q, path, nxt)
                    if path is None:
                        raise ParseError(f"relation #{rel_no}: path {steps!r} is not composable")
            terms.append((path, coeff))
        relations.append(PathElement(q, terms))
    return relations
