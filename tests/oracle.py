"""Object-level arithmetic of h(Q) and kQ: the reference for the tables.

faceq holds elements only as coordinate dicts over indexed bases and
multiplies them through structure-constant tables.  This module keeps the
second, independent implementation the tests compare those tables with:
face elements as sums of monomials x[a;b], multiplied by concatenating
paths componentwise, with the coproduct Δ(x[a;b]) = Σ_m x[a;m] ⊗ x[m;b],
the counit and the counital maps; path elements with their products, and
the former reading of a relations document through them; and two small
weak bialgebras built by hand, the two-idempotent bialgebra D and direct
sums; and the sum of several biideals' graded pieces, the reference for
the transposed biideal that spreads both sides' relations together.  It
also keeps the exhaustive base-isomorphism search, the reference for the
pruned one in coaction.search_base_iso, and the double quiver and the
preprojective relations of a cycle, which the tests build and the command
line reads as plain quiver and relations documents.  Coefficients are
Fractions.
"""

from itertools import permutations

from fractions import Fraction

from faceq import coaction as co
from faceq import face as fc
from faceq import pathalg as pa
from faceq import quiver as qv
from faceq import wba
from faceq.errors import ParseError, UnsupportedShapeError
from faceq.face import FaceMonomial
from faceq.linalg import Echelon

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
    return wba.GradedWBA(max_degree, labels, product, unit, coproduct, counit)


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
    for (d, i), entry in h.coproduct.items():
        coproduct[(d, i)] = dict(entry)
    for (d, i), entry in k.coproduct.items():
        coproduct[(d, i + off[d])] = {(j + off[d], m + off[d]): c for (j, m), c in entry.items()}
    counit = {}
    for (d, i), c in h.counit.items():
        counit[(d, i)] = c
    for (d, i), c in k.counit.items():
        counit[(d, i + off[d])] = c
    return wba.GradedWBA(md, labels, product, unit, coproduct, counit)


def sum_of_pieces(biideals, max_degree):
    """Echelons, degrees 0..max_degree, of the ideal that the biideals'
    generators generate together in their one host: each the sum of their
    pieces as each biideal holds them, finalized or only ranked."""
    sums = [Echelon(biideals[0].host.dim(d)) for d in range(max_degree + 1)]
    for b in biideals:
        for d, ech in enumerate(sums):
            if d in b._pieces:
                rows, add = b._pieces[d].basis, ech.add
            else:  # a ranked piece holds int rows
                rows, add = list(wba._spread(b, d).pivot_rows.values()), ech.add_ints
            for row in rows:
                add(row)
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
