"""Relations of kQ as coordinate rows, homogeneous ideals, quadratic data.

Relations are (degree, coordinate dict) rows on kQ's path basis of that
degree, homogeneous of degree >= 2, as parse_relations reads them.  The
ideal they generate is a wba.BiidealGens over kQ (the path algebra as a
wba.GradedAlgebra): its graded pieces are canonical subspaces over the
fixed path basis, spanned by the products e_u r e_w of the relations r
with vertex idempotents and spread up the grading by the arrows.
"""

from .errors import ParseError, UnsupportedShapeError, shown
from .linalg import Subspace, bump, int_where_integral, rational
from . import quiver as qv
from . import wba


def ideal_graded_piece(q, relations, d):
    """Canonical subspace I_d inside kQ_d.

    The degree-d piece of the BiidealGens over kQ truncated at d (see
    wba.path_algebra_presentation) generated by the relations of degree at
    most d; wba.biideal_graded_pieces spreads the products e_u r e_w of the
    relations with vertex idempotents up the grading by the arrows.
    """
    b = wba.BiidealGens(wba.path_algebra_presentation(q, d),
                        [(e, row) for e, row in relations if e <= d])
    return wba.biideal_graded_pieces(b, d)


class QuadraticData:
    """A relation space R in kQ_2 (path basis) and the wba.BiidealGens it was read from.

    dual_rows is R^⊥, quadratic_dual_rows(R), computed when the data is
    built.  quadratic_dual needs R to be a kQ_0-bimodule, as I_2 is.
    """

    def __init__(self, q, relation_space, ideal):
        self.quiver = q
        self.relation_space = relation_space
        self.ideal = ideal
        self.dual_rows = quadratic_dual_rows(relation_space)

    @property
    def ambient_dim(self):
        return self.relation_space.ambient_dim


def quadratic_data(q, relations, max_degree=2):
    """R = I_2, the degree-2 piece of the ideal of degree-2 relations.

    As a piece of a two-sided ideal, R is a kQ_0-bimodule, which quadratic
    duality needs: a relation joining different endpoints, like ab + cc with
    ab from u to w and the loop cc at w, puts e_u(ab + cc) = ab and
    e_w(ab + cc) = cc into R separately.  R is read from the relations'
    BiidealGens over kQ truncated at max_degree, kept as the result's ideal.
    """
    for d, _ in relations:
        if d != 2:
            raise UnsupportedShapeError(
                f"quadratic data requires degree-2 generators, found degree {d}")
    b = wba.BiidealGens(wba.path_algebra_presentation(q, max_degree), relations)
    return QuadraticData(q, wba.biideal_graded_pieces(b, 2), b)


def quadratic_dual_rows(rel):
    """Canonical basis of the orthogonal complement of a relation space R inside kQ_2.

    Each free column f of R's echelon basis spans one kernel vector, e_f
    plus the column-f entries of the pivot rows' projections, scaled by D.
    Rows stay on the degree-2 paths of the original quiver; quadratic_dual
    transports them to the opposite quiver.
    """
    proj = rel.projection
    kernel = [{f: proj.denom, **{p: proj.rows[p][k] for p in rel.pivots if k in proj.rows[p]}}
              for k, f in enumerate(proj.cols)]
    return Subspace.from_rows(rel.ambient_dim, kernel).basis


def quadratic_dual(qd):
    """Quadratic dual relation space R^!, on the opposite quiver.

    The pairing identifies the opposite path (pq)* = q* p* with the dual
    basis vector of pq, so R^! is the complement R^⊥ (qd.dual_rows) moved
    along path reversal (quiver.star_indices), read by quadratic_data over
    kQ^op truncated where qd's kQ is.  The vertex idempotents act on kQ_2
    by self-adjoint coordinate projections, so R^⊥ is a kQ_0-bimodule
    exactly when R is; then the products with them add nothing, and
    otherwise the piece outgrows the independent moved rows and
    UnsupportedShapeError is raised.
    """
    star = qv.star_indices(qd.quiver, 2)
    moved = [(2, {star[c]: x for c, x in row.items()}) for row in qd.dual_rows]
    qdual = quadratic_data(qv.opposite_quiver(qd.quiver), moved, qd.ideal.host.max_degree)
    if qdual.relation_space.dim != len(moved):
        raise UnsupportedShapeError(
            "quadratic dual requires a relation space that is a kQ_0-bimodule, "
            "as I_2 of an ideal is")
    return qdual


def parse_scalar(value):
    """Accept ints, returned as they are, and 'a/b' strings, read by
    linalg.rational; reject floats (exactness contract), exponents, which
    would make Fraction build 10**k from a few bytes, and '_' digit
    separators, which Fraction reads only from Python 3.11 on.  An
    over-long text is named by its first characters and its length."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"coefficients must be integers or rational strings, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and "e" in value.lower():
        raise ParseError(f"cannot read coefficient {shown(value)}: exponents are not accepted")
    if isinstance(value, str) and "_" in value:
        raise ParseError(f"cannot read coefficient {shown(value)}: "
                         f"digit separators are not accepted")
    try:
        return rational(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        detail = str(exc).replace(repr(value), shown(value))
        raise ParseError(f"cannot read coefficient {shown(value)}: {detail}") from None


def parse_relations(doc, q):
    """Read a relations document as (degree, coordinate dict) rows on kQ's path bases.

    The document is a list of relations, each a list of terms.  Each term
    is an object with 'coeff' and 'path'; the path is an ordered list of
    arrow names, with trivial paths written 'e:<label>'.  Repeated paths
    are summed; zero coefficients, cancelled sums and zero relations are
    dropped, and values are ints where integral.  Every ParseError comes
    before any shape error: once the whole document is read, a relation
    that is not homogeneous of degree >= 2 raises UnsupportedShapeError.
    Repeated relations stay; wba.BiidealGens drops them.
    """
    if not isinstance(doc, list):
        raise ParseError("relations document must be a list of relations")
    sums = []
    for rel_no, rel in enumerate(doc):
        if not isinstance(rel, list):
            raise ParseError(f"relation #{rel_no} must be a list of terms")
        summed = {}
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
            bump(summed, path, coeff)
        sums.append(summed)
    relations = []
    for summed in filter(None, sums):
        degrees = {p.length for p in summed}
        if len(degrees) > 1:
            raise UnsupportedShapeError("ideal generators must be homogeneous")
        d = degrees.pop()
        if d < 2:
            raise UnsupportedShapeError(f"ideal generators must have degree >= 2, got degree {d}")
        relations.append((d, {qv.path_index(q, p): int_where_integral(c)
                              for p, c in summed.items()}))
    return relations
