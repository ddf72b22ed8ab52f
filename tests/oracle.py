"""Object-level arithmetic of h(Q) and kQ: the reference for the tables.

faceq holds elements only as coordinate dicts over indexed bases and
multiplies them through structure-constant tables.  This module keeps the
second, independent implementation the tests compare those tables with:
face elements as sums of monomials x[a;b], multiplied by concatenating
paths componentwise, with the coproduct Δ(x[a;b]) = Σ_m x[a;m] ⊗ x[m;b],
the counit and the counital maps; path elements with their products, and
the former reading of a relations document through them; and two small
weak bialgebras built by hand, the two-idempotent bialgebra D and direct
sums; a presentation's coproduct as a table, which no presentation
keeps, and a presentation whose coproduct reads such a table (tabled),
which the tests build by hand, copy and corrupt, and whose restricted
coproduct read filters that table, the reference for the restricted reads
of h(Q) and of a quotient;
and the sum of several biideals' graded pieces, the reference for
the transposed biideal that spreads both sides' relations together.  It
also keeps the exhaustive base-isomorphism search, the reference for the
pruned one in coaction.search_base_iso; the scans of both weak-counit
and both weak-unit splits that wba's joins replaced, the reference for
them; the dense two-leg map, the reference for linalg.apply_legs; and
the double quiver and the preprojective relations of a cycle, which the
tests build and the command line reads as plain quiver and relations
documents; the product quiver Q ⊠ Q, whose path algebra is h(Q), an
independent presentation of the face algebra; subspace_equal, Subspace equality that refuses subspaces
of different ambient dimensions; projection_oracle, a subspace's coset
projection built from its pivot-1 basis in Fractions, the reference for
linalg.Projection; and duality_report_with_dims, the duality transports
by their former rule, which also compared graded quotient dimensions, the
reference for the degree-2 rule of uqsgd.check_quadratic_dualities;
and generator_reducible, the spanning and generator-associativity joins
that prove the premise wba.GradedAlgebra.generator_reducible asserts, and
factors_uniquely, the scan of the products that proves
wba.GradedAlgebra.factors_uniquely, the references for the facts that
path_algebra_presentation sets at birth.
Coefficients are Fractions.
"""

from itertools import permutations
from math import lcm

from fractions import Fraction

from faceq import coaction as co
from faceq import face as fc
from faceq import pathalg as pa
from faceq import quiver as qv
from faceq import uqsgd as uq
from faceq import wba
from faceq.errors import ParseError, UnsupportedShapeError
from faceq.face import FaceMonomial
from faceq.linalg import Echelon, Subspace, bump

_ONE = 1


def monomial_degree(m):
    return m.left.length


def monomial_label(q, m):
    return f"x[{q.path_label(m.left)};{q.path_label(m.right)}]"


def _path_key(p):
    return (p.length, p.arrows, p.start)


def _monomial_key(m):
    return (_path_key(m.left), _path_key(m.right))


class FaceElement:
    """A k-linear combination of face monomials over one quiver."""

    def __init__(self, q, terms=()):
        self.quiver = q
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mono, coeff in items:
            coeff = Fraction(coeff)
            if coeff:
                data[mono] = data.get(mono, Fraction(0)) + coeff
                if not data[mono]:
                    del data[mono]
        self.terms = data

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return FaceElement(self.quiver, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return FaceElement(self.quiver, {m: Fraction(scalar) * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FaceElement):
            return face_multiply(self, other)
        return NotImplemented

    def __eq__(self, other):
        return (isinstance(other, FaceElement) and self.quiver == other.quiver
                and self.terms == other.terms)

    def _check(self, other):
        if self.quiver != other.quiver:
            raise ValueError("face elements live over different quivers")

    def __repr__(self):
        return f"FaceElement({format_element(self)})"


def format_element(elem):
    if elem.is_zero():
        return "0"
    parts = []
    for m in sorted(elem.terms, key=_monomial_key):
        parts.append(f"{elem.terms[m]} * {monomial_label(elem.quiver, m)}")
    return " + ".join(parts)


def parse_face_element(q, text):
    """A face element read from text, of any degrees, by face.parse_terms."""
    return FaceElement(q, fc.parse_terms(q, text))


def face_element(q, d, coords):
    """The face element with these coordinates on the degree-d face basis."""
    basis = fc.face_basis(q, d)
    return FaceElement(q, {basis[i]: c for i, c in coords.items()})


class TensorElement:
    """An element of the two-fold tensor square, keyed by monomial pairs."""

    def __init__(self, q, terms=()):
        self.quiver = q
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for pair, coeff in items:
            coeff = Fraction(coeff)
            if coeff:
                data[pair] = data.get(pair, Fraction(0)) + coeff
                if not data[pair]:
                    del data[pair]
        self.terms = data

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for pair, c in other.terms.items():
            s = out.get(pair, Fraction(0)) + c
            if s:
                out[pair] = s
            else:
                out.pop(pair, None)
        return TensorElement(self.quiver, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return TensorElement(self.quiver, {p: Fraction(scalar) * c for p, c in self.terms.items()})

    def __mul__(self, other):
        """Componentwise product (u x v)(u' x v') = uu' x vv'."""
        out = {}
        for (m1, m2), c in self.terms.items():
            for (n1, n2), d in other.terms.items():
                left = monomial_product(self.quiver, m1, n1)
                if left is None:
                    continue
                right = monomial_product(self.quiver, m2, n2)
                if right is None:
                    continue
                s = out.get((left, right), Fraction(0)) + c * d
                if s:
                    out[(left, right)] = s
                else:
                    out.pop((left, right), None)
        return TensorElement(self.quiver, out)

    def __eq__(self, other):
        return (isinstance(other, TensorElement) and self.quiver == other.quiver
                and self.terms == other.terms)


def monomial_product(q, m, n):
    left = qv.compose_paths(q, m.left, n.left)
    if left is None:
        return None
    right = qv.compose_paths(q, m.right, n.right)
    if right is None:
        return None
    return FaceMonomial(left, right)


def face_multiply(x, y):
    x._check(y)
    out = {}
    for m, c in x.terms.items():
        for n, d in y.terms.items():
            prod = monomial_product(x.quiver, m, n)
            if prod is None:
                continue
            s = out.get(prod, Fraction(0)) + c * d
            if s:
                out[prod] = s
            else:
                out.pop(prod, None)
    return FaceElement(x.quiver, out)


def face_unit(q):
    """1 = sum of x[e:i;e:j] over all ordered vertex pairs."""
    n = len(q.vertices)
    return FaceElement(q, {
        FaceMonomial(q.trivial_path(i), q.trivial_path(j)): 1
        for i in range(n) for j in range(n)
    })


def face_coproduct(elem):
    """Delta(x[a;b]) = sum over middle paths m of x[a;m] (x) x[m;b]."""
    out = {}
    for mono, c in elem.terms.items():
        for m in qv.enumerate_paths(elem.quiver, monomial_degree(mono)):
            pair = (FaceMonomial(mono.left, m), FaceMonomial(m, mono.right))
            out[pair] = out.get(pair, Fraction(0)) + c
    return TensorElement(elem.quiver, out)


def face_counit(elem):
    """eps(x[a;b]) = 1 if a = b else 0, extended linearly."""
    total = Fraction(0)
    for mono, c in elem.terms.items():
        if mono.left == mono.right:
            total += c
    return total


def counital_map(elem, side):
    """Source / target counital maps computed from the split unit.

    With Delta(1) = sum 1' (x) 1'', the source map sends x to
    sum 1' eps(x 1'') and the target map to sum eps(1' x) 1''.
    """
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    q = elem.quiver
    split = face_coproduct(face_unit(q))
    out = FaceElement(q, {})
    for (u1, u2), c in split.terms.items():
        one1 = FaceElement(q, {u1: c})
        one2 = FaceElement(q, {u2: 1})
        if side == "source":
            out = out + face_counit(face_multiply(elem, one2)) * one1
        else:
            out = out + face_counit(face_multiply(one1, elem)) * one2
    return out


class PathElement:
    """A k-linear combination of paths of one quiver, in Fractions, with the
    linear operations and the path product; repeated paths are summed and
    zero sums dropped."""

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

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return PathElement(self.quiver, out)

    def __sub__(self, other):
        self._check(other)
        return self + (-1) * other

    def __rmul__(self, scalar):
        return PathElement(self.quiver, {p: Fraction(scalar) * c for p, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PathElement):
            return multiply_path_elements(self, other)
        return NotImplemented

    def _check(self, other):
        if self.quiver != other.quiver:
            raise ValueError("path elements live over different quivers")


def homogeneous_generators(elems):
    """The generators of the ideal the path elements generate, by the former
    ideal type's rules: zero elements dropped, ValueError for one that is
    not homogeneous of degree >= 2, repeats dropped in first-seen order."""
    gens = []
    for g in elems:
        if g.is_zero():
            continue
        d = g.degree()
        if d is None:
            raise ValueError("ideal generators must be homogeneous")
        if d < 2:
            raise ValueError(f"ideal generators must have degree >= 2, got degree {d}")
        if all(g.terms != h.terms for h in gens):
            gens.append(g)
    return gens


def element_rows(elems):
    """(degree, coordinate dict) rows of homogeneous path elements on the
    path basis of their degree, with the elements' Fraction values."""
    rows = []
    for g in elems:
        index = {p: i for i, p in enumerate(qv.enumerate_paths(g.quiver, g.degree()))}
        rows.append((g.degree(), {index[p]: c for p, c in g.terms.items()}))
    return rows


def read_relations_oracle(doc, q):
    """A relations document read the former way: each relation a path
    element built term by term, then the generators of homogeneous_generators,
    whose ValueError the command line raised as UnsupportedShapeError, as
    element_rows; the reference for pathalg.parse_relations, which also
    keeps repeated relations."""
    if not isinstance(doc, list):
        raise ParseError("relations document must be a list of relations")
    elems = []
    for rel_no, rel in enumerate(doc):
        if not isinstance(rel, list):
            raise ParseError(f"relation #{rel_no} must be a list of terms")
        terms = []
        for term in rel:
            if not isinstance(term, dict) or "coeff" not in term or "path" not in term:
                raise ParseError(f"relation #{rel_no}: each term needs 'coeff' and 'path'")
            coeff = pa.parse_scalar(term["coeff"])
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
        elems.append(PathElement(q, terms))
    try:
        return element_rows(homogeneous_generators(elems))
    except ValueError as exc:
        raise UnsupportedShapeError(str(exc)) from None


def path_unit(q):
    """1 = sum of all trivial paths."""
    return PathElement(q, {q.trivial_path(v): 1 for v in range(len(q.vertices))})


def multiply_path_elements(a, b):
    """Bilinear extension of path concatenation; incomposable pairs give 0."""
    if a.quiver != b.quiver:
        raise ValueError("path elements live over different quivers")
    out = {}
    for p, cp in a.terms.items():
        for r, cr in b.terms.items():
            pr = qv.compose_paths(a.quiver, p, r)
            if pr is None:
                continue
            c = out.get(pr, Fraction(0)) + cp * cr
            if c:
                out[pr] = c
            else:
                out.pop(pr, None)
    return PathElement(a.quiver, out)


def path_text(elem):
    """A path element in the one text form: face.format_coords over the path
    labels of each of its degrees, lowest first."""
    q = elem.quiver
    parts = []
    for d in sorted({p.length for p in elem.terms}):
        paths = qv.enumerate_paths(q, d)
        index = {p: i for i, p in enumerate(paths)}
        coords = {index[p]: c for p, c in elem.terms.items() if p.length == d}
        parts.append(fc.format_coords([q.path_label(p) for p in paths], coords))
    return " + ".join(parts) or "0"


def bialgebra_d(max_degree):
    """The two-dimensional bialgebra on idempotents x, y with xy = yx = 0.

    Concentrated in degree 0; higher degrees are empty.
    """
    labels = [["x", "y"]] + [[] for _ in range(max_degree)]
    product = {(0, 0, 0, 0): {0: _ONE}, (0, 1, 0, 1): {1: _ONE}}
    unit = {0: _ONE, 1: _ONE}
    coproduct = {
        (0, 0): {(0, 0): _ONE, (1, 1): _ONE},
        (0, 1): {(0, 1): _ONE, (1, 0): _ONE},
    }
    counit = {(0, 0): _ONE}
    return tabled(labels, product, unit, coproduct, counit)


def tabled(labels, product, unit, coproduct, counit):
    """A GradedWBA whose coproduct_of reads the table coproduct,
    {(d, i): {(j, k): scalar}} with nonzero terms only, and whose
    coproducts_on filters it: the generic restricted read, the reference
    for the index arithmetic of h(Q) and the restricted rows of a quotient.
    The caller keeps the dict, and a test that corrupts the presentation
    changes it before anything reads it."""
    def coproducts_on(d, first, second):
        out = {}
        for i in range(len(labels[d])):
            kept = {(j, k): c for (j, k), c in coproduct.get((d, i), {}).items()
                    if j in first and k in second}
            if kept:
                out[i] = kept
        return out

    return wba.GradedWBA(labels, product, unit,
                         lambda d, i: coproduct.get((d, i), {}), coproducts_on, counit)


def coproduct_table(w):
    """{(d, i): w.coproduct_of(d, i)} over the nonzero coproducts, in basis order."""
    return {(d, i): entry for d in range(w.max_degree + 1) for i in range(w.dim(d))
            if (entry := w.coproduct_of(d, i))}


def direct_sum(h, k):
    """Componentwise product, summed unit, blockwise coproduct and counit."""
    if h.max_degree != k.max_degree:
        raise ValueError("direct sum requires equal truncation degrees")
    md = h.max_degree
    labels = [[f"({lbl},0)" for lbl in h.labels[d]] + [f"(0,{lbl})" for lbl in k.labels[d]]
              for d in range(md + 1)]
    off = [h.dim(d) for d in range(md + 1)]
    product = {}
    for (d, i, e, j), entry in h.product.items():
        product[(d, i, e, j)] = dict(entry)
    for (d, i, e, j), entry in k.product.items():
        product[(d, i + off[d], e, j + off[e])] = {m + off[d + e]: c for m, c in entry.items()}
    unit = dict(h.unit)
    for i, c in k.unit.items():
        unit[i + off[0]] = c
    coproduct = {}
    for (d, i), entry in coproduct_table(h).items():
        coproduct[(d, i)] = dict(entry)
    for (d, i), entry in coproduct_table(k).items():
        coproduct[(d, i + off[d])] = {(j + off[d], m + off[d]): c for (j, m), c in entry.items()}
    counit = {}
    for (d, i), c in h.counit.items():
        counit[(d, i)] = c
    for (d, i), c in k.counit.items():
        counit[(d, i + off[d])] = c
    return tabled(labels, product, unit, coproduct, counit)


def sum_of_pieces(biideals):
    """Echelons, one per degree of the host's window, of the ideal that the
    biideals' generators generate together in their one host: each the sum
    of their finalized pieces."""
    host = biideals[0].host
    sums = [Echelon(host.dim(d)) for d in range(host.max_degree + 1)]
    for b in biideals:
        for d, ech in enumerate(sums):
            for row in wba.biideal_graded_pieces(b, d).basis:
                ech.add(row)
    return sums


def search_base_iso_exhaustive(c, host):
    """coaction.search_base_iso without pruning: verify_base_iso on every
    bijection of the degree-0 basis onto the counital basis, in
    itertools.permutations order, and the first that passes as
    (candidate, verification), or None."""
    n0 = c.algebra.dim(0)
    side_name = "target" if c.side == "left" else "source"
    counital = wba.counital_subalgebra(host, side_name)
    if counital.dim != n0:
        return None
    basis = [dict(row) for row in counital.basis]
    for perm in permutations(range(n0)):
        candidate = [basis[perm[k]] for k in range(n0)]
        verification = co.verify_base_iso(c, host, candidate)
        if verification["passed"]:
            return candidate, verification
    return None


def apply_legs_dense(element, left, right, out_dims):
    """(L (x) R)(t) entry by entry: for every (m, n) below out_dims, the sum
    of c L[x][m] R[y][n] over all terms c (x, y) of t, a missing leg or
    entry read as 0, and only nonzero sums kept.  The reference for
    linalg.apply_legs."""
    out = {}
    for m in range(out_dims[0]):
        for n in range(out_dims[1]):
            total = sum((c * left.get(x, {}).get(m, 0) * right.get(y, {}).get(n, 0)
                         for (x, y), c in element.items()), Fraction(0))
            if total:
                out[(m, n)] = total
    return out


def counit_splits_scan(w):
    """Both weak-counit split failure lists of wba.check_axioms, by a scan:
    per degree triple and right factor u_b, every term of Delta(u_b) and
    every left factor of u_b.  The reference for wba's counit-split join."""
    eps = w.eps_products
    by_col = {}
    by_row = {}
    for (d, e), mat in eps.items():
        col = by_col.setdefault((d, e), {})
        row = by_row.setdefault((d, e), {})
        for (i, j), val in mat.items():
            col.setdefault(j, []).append((i, val))
            row.setdefault(i, []).append((j, val))
    # by_right[(d, e)][b] lists (a, u_a u_b) over the nonzero products
    by_right = {}
    for (d, a, e, b), entry in w.product.items():
        by_right.setdefault((d, e), {}).setdefault(b, []).append((a, entry))
    fails12 = []
    fails21 = []
    degrees = [d for d in range(w.max_degree + 1) if w.dim(d)]
    for d in degrees:
        for e in degrees:
            if d + e > w.max_degree:
                break
            products = by_right.get((d, e), {})
            for f in degrees:
                if d + e + f > w.max_degree:
                    break
                e1col = by_col.get((d, e), {})
                e2row = by_row.get((e, f), {})
                e3row = by_row.get((d + e, f), {})
                for b in range(w.dim(e)):
                    lhs = {}
                    for a, entry in products.get(b, ()):
                        for m, cm in entry.items():
                            for c, vc in e3row.get(m, ()):
                                bump(lhs, (a, c), cm * vc)
                    split = w.coproduct_of(e, b)
                    rhs12 = {}
                    rhs21 = {}
                    for (j, k), c0 in split.items():
                        for a, va in e1col.get(j, ()):
                            for c, vc in e2row.get(k, ()):
                                bump(rhs12, (a, c), c0 * va * vc)
                        for a, va in e1col.get(k, ()):
                            for c, vc in e2row.get(j, ()):
                                bump(rhs21, (a, c), c0 * va * vc)
                    if lhs != rhs12:
                        a, c = wba._first_mismatch(lhs, rhs12)
                        fails12.append([w.label_of(d, a), w.label_of(e, b), w.label_of(f, c)])
                    if lhs != rhs21:
                        a, c = wba._first_mismatch(lhs, rhs21)
                        fails21.append([w.label_of(d, a), w.label_of(e, b), w.label_of(f, c)])
    return fails12, fails21


def unit_splits_scan(w):
    """Both weak-unit split failure lists of wba.check_axioms, by a scan
    over every pair of terms of Delta(1).  The reference for wba's
    unit-split join."""
    d1 = w.delta_one()
    lhs = {}
    for (i, k), c in d1.items():
        for (m, n), cc in w.coproduct_of(0, i).items():
            bump(lhs, (m, n, k), c * cc)
    right_one = [w.multiply(0, {i: _ONE}, 0, w.unit) for i in range(w.dim(0))]
    left_one = [w.multiply(0, w.unit, 0, {i: _ONE}) for i in range(w.dim(0))]

    def _triple(leg1_of, mid_of, leg3_of):
        out = {}
        for (i, j), c1 in d1.items():
            for (k, m), c2 in d1.items():
                c12 = c1 * c2
                leg1 = leg1_of(i)
                leg3 = leg3_of(m)
                for n, cn in mid_of(j, k).items():
                    for a, ca in leg1.items():
                        for b, cb in leg3.items():
                            bump(out, (a, n, b), c12 * cn * ca * cb)
        return out

    # (Delta(1) (x) 1)(1 (x) Delta(1)): legs u_i*1, u_j*u_k, 1*u_m
    split12 = _triple(lambda i: right_one[i],
                      lambda j, k: w.product_of(0, j, 0, k),
                      lambda m: left_one[m])
    # (1 (x) Delta(1))(Delta(1) (x) 1): legs 1*u_i, u_k*u_j, u_m*1
    split21 = _triple(lambda i: left_one[i],
                      lambda j, k: w.product_of(0, k, 0, j),
                      lambda m: right_one[m])
    fails12 = [] if lhs == split12 else [["1"]]
    fails21 = [] if lhs == split21 else [["1"]]
    return fails12, fails21


def double_quiver(q):
    """Original arrows followed by their reverses p*.

    A quiver that already has an arrow named p* next to p cannot be doubled
    this way: UnsupportedShapeError names the two arrows.
    """
    names = set(q.arrow_index)
    for a in q.arrows:
        if a.name + "*" in names:
            raise UnsupportedShapeError(
                f"cannot double the quiver: the reverse of arrow {a.name!r} would be named "
                f"{a.name + '*'!r}, which is already an arrow")
    arrows = [tuple(a) for a in q.arrows]
    arrows += [(a.name + "*", a.target, a.source) for a in q.arrows]
    return qv.Quiver(q.vertices, arrows)


def product_quiver(q):
    """Q ⊠ Q: vertices Q0 × Q0 and arrows (α, β) from (sα, sβ) to (tα, tβ).

    The pair (u, v) has index u·|Q0| + v and (α, β) index α·|Q1| + β, and
    both are named by their indices, so no two names clash.  As a graded
    algebra h(Q) is k(Q ⊠ Q), with x[a;b] the path of pairs (a, b).
    """
    nv = len(q.vertices)
    vertices = [f"v{u}_{v}" for u in range(nv) for v in range(nv)]
    arrows = [(f"a{i}_{j}", a.source * nv + b.source, a.target * nv + b.target)
              for i, a in enumerate(q.arrows) for j, b in enumerate(q.arrows)]
    return qv.Quiver(vertices, arrows)


def product_path_indices(q, pq, d):
    """index[i_a n + i_b] is the position of the path of pairs (a, b) among
    the degree-d paths of pq = product_quiver(q): the map x[a;b] -> (a, b)."""
    nv, na = len(q.vertices), len(q.arrows)
    paths = qv.enumerate_paths(q, d)
    return [qv.path_index(pq, qv.Path(a.start * nv + b.start,
                                      tuple(x * na + y for x, y in zip(a.arrows, b.arrows))))
            for a in paths for b in paths]


def preprojective_relations(q):
    """Vertex-local preprojective relations p_i p_i* - p_{i-1}* p_{i-1}.

    Expects a cyclic quiver on n >= 3 vertices whose i-th arrow runs from
    vertex i to vertex i+1 (mod n); returns (double quiver, relation rows
    on its degree-2 paths).
    """
    n = len(q.vertices)
    if n < 3 or len(q.arrows) != n:
        raise UnsupportedShapeError("preprojective relations need a cyclic quiver with >= 3 vertices")
    for i, a in enumerate(q.arrows):
        if a.source != i or a.target != (i + 1) % n:
            raise UnsupportedShapeError(
                f"arrow {a.name} does not follow the cycle pattern i -> i+1 (mod {n})")
    dbl = double_quiver(q)
    relations = []
    for i in range(n):
        j = (i - 1) % n
        pos = qv.compose_paths(dbl, dbl.arrow_path(i), dbl.arrow_path(n + i))
        neg = qv.compose_paths(dbl, dbl.arrow_path(n + j), dbl.arrow_path(j))
        relations.append((2, {qv.path_index(dbl, pos): 1, qv.path_index(dbl, neg): -1}))
    return dbl, relations


def subspace_equal(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a == b


def projection_oracle(subspace):
    """(cols, rows, denom) of the coset projection, from the pivot-1 basis:
    denom is the lcm of the basis's denominators, and a pivot m's row is
    -denom times basis row m without its pivot, each value a Fraction
    product turned back into an int.  The reference for linalg.Projection."""
    piv = dict(zip(subspace.pivots, subspace.basis))
    cols = [m for m in range(subspace.ambient_dim) if m not in piv]
    pos = {m: k for k, m in enumerate(cols)}
    denom = lcm(1, *{Fraction(x).denominator for row in subspace.basis for x in row.values()})
    rows = {m: {pos[c]: int(-Fraction(x) * denom) for c, x in piv[m].items() if c != m}
            if m in piv else {pos[m]: denom} for m in range(subspace.ambient_dim)}
    return cols, rows, denom


def duality_report_with_dims(qd, qdual, max_degree):
    """uqsgd.check_quadratic_dualities by its former rule, every row tested
    twice: the degree-2 piece moved along star or swap must equal the
    target's, and the two biideals' graded quotient dimensions up to
    max_degree must agree, each of the six spread over h(Q) squared from
    the data's kQ at its full truncation.  The moves are
    written out here from quiver.star_indices; the biideals are
    uqsgd._relation_biideal's."""
    pieces, dims, ambient = {}, {}, {}
    for label, data in (("base", qd), ("dual", qdual)):
        host = wba.face_algebra(data.ideal.host)
        ambient[label] = host.dim(2)
        for side in uq.RESULT_SIDES:
            b = uq._relation_biideal(host, data, side)[1]
            dims[side, label] = wba.quotient_dims(b)[:max_degree + 1]
            pieces[side, label] = wba.biideal_graded_pieces(b, 2)
    star = qv.star_indices(qd.quiver, 2)
    n = len(star)
    moves = {"star": lambda i: star[i // n] * n + star[i % n],
             "swap": lambda i: i % n * n + i // n}
    table = (
        ("a-star-left-onto-dual-right", ("left", "base"), "star", ("right", "dual"),
         "left piece of the base vs right piece of the dual"),
        ("b-star-right-onto-dual-left", ("right", "base"), "star", ("left", "dual"),
         "right piece of the base vs left piece of the dual"),
        ("c-swap-left-onto-right", ("left", "base"), "swap", ("right", "base"),
         "left piece vs right piece under swap"),
        ("d-star-trans-onto-dual-trans", ("trans", "base"), "star", ("trans", "dual"),
         "transposed piece of the base vs transposed piece of the dual"),
    )
    rows = []
    for name, src, move, dst, detail in table:
        moved = Subspace.from_rows(ambient[dst[1]], [{moves[move](i): c for i, c in row.items()}
                                                     for row in pieces[src].int_rows])
        ok = moved == pieces[dst] and dims[src] == dims[dst]
        rows.append((name, [] if ok else [detail]))
    return wba.report(rows)


def generator_reducible(alg):
    """The premise that wba.GradedAlgebra.generator_reducible asserts, by
    the joins that once computed it: spanned_from_degree_one and
    generator_associative.  The reference for the born fact."""
    return spanned_from_degree_one(alg) and generator_associative(alg)


def spanned_from_degree_one(alg):
    """True iff each degree d >= 2 is spanned by the products of degree 1 and degree d-1.

    One Echelon per degree takes the product entries until it reaches full rank.
    """
    rows = alg.products_by_left
    for d in range(2, alg.max_degree + 1):
        n = alg.dim(d)
        ech = Echelon(n)
        for row in rows.get((1, d - 1), {}).values():
            for entry in row.values():
                if ech.rank == n:
                    break
                ech.add(entry)
        if ech.rank < n:
            return False
    return True


def generator_associative(alg):
    """True iff (g x) y = g (x y) for every basis g, x, y in the window with
    g of degree 1 and x of degree >= 1, or g of degree 0, x of degree 1 and
    y of degree >= 1: the triples wba.multiplicative_failures's inductions use.

    A join over the nonzero products: per degree pair (dx, dy) the terms
    c u_n of the products u_x u_y are indexed by n, the right factor of
    g u_n, so g (x y) visits only the nonzero g u_n, and (g x) y reads
    products_by_left.  Per g, both sides go into one difference table,
    which must be zero.
    """
    rows = alg.products_by_left
    top = alg.max_degree
    for dx in range(1, top + 1):
        for dy in range(top + 1 - dx):
            gds = [gd for gd in ((0, 1) if dx == 1 and dy else (1,)) if gd + dx + dy <= top]
            if not gds:
                continue
            # by_right[n] lists (x, y, c) over the terms c u_n of the products u_x u_y
            by_right = {}
            for x, row in rows.get((dx, dy), {}).items():
                for y, entry in row.items():
                    for n, c in entry.items():
                        by_right.setdefault(n, []).append((x, y, c))
            for gd in gds:
                gx_rows = rows.get((gd, dx), {})
                my_rows = rows.get((gd + dx, dy), {})
                gn_rows = rows.get((gd, dx + dy), {})
                for g in range(alg.dim(gd)):
                    # diff[(x, y, k)] is the u_k coefficient of (g x) y - g (x y)
                    diff = {}
                    for x, entry in gx_rows.get(g, {}).items():
                        for m, c in entry.items():
                            for y, my in my_rows.get(m, {}).items():
                                for k, ck in my.items():
                                    bump(diff, (x, y, k), c * ck)
                    for n, gn in gn_rows.get(g, {}).items():
                        for x, y, c in by_right.get(n, ()):
                            for k, ck in gn.items():
                                bump(diff, (x, y, k), -c * ck)
                    if diff:
                        return False
    return True


def factors_uniquely(alg):
    """True iff for all degrees d, e with a basis and d + e in the window,
    every nonzero product u_i u_j of degrees (d, e) is one basis element
    with coefficient 1, and each degree-(d+e) basis element is the product
    of exactly one such pair (i, j).

    One pass over alg.products_by_left, at most sum n_d n_e entries.  The
    reference for the fact wba.GradedAlgebra.factors_uniquely.
    """
    rows = alg.products_by_left
    degrees = [d for d in range(alg.max_degree + 1) if alg.dim(d)]
    for d in degrees:
        for e in [e for e in degrees if d + e <= alg.max_degree]:
            hit = [False] * alg.dim(d + e)
            for row in rows.get((d, e), {}).values():
                for entry in row.values():
                    if len(entry) != 1:
                        return False
                    (m, c), = entry.items()
                    if c != 1 or hit[m]:
                        return False
                    hit[m] = True
            if not all(hit):
                return False
    return True
