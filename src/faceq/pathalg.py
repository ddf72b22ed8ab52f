"""Graded path algebra elements, homogeneous ideals, quadratic data.

An ideal here is always homogeneous with generators of degree >= 2; its
graded pieces are computed by one-step spanning from the previous degree
and returned as canonical subspaces over the fixed path basis.
"""

from fractions import Fraction

from .errors import ParseError, UnsupportedShapeError
from .linalg import Echelon, Subspace
from . import quiver as qv


class PathElement:
    """A k-linear combination of paths of one quiver."""

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

    def __eq__(self, other):
        return (isinstance(other, PathElement) and self.quiver == other.quiver
                and self.terms == other.terms)

    def _check(self, other):
        if self.quiver != other.quiver:
            raise ValueError("path elements live over different quivers")

    def __repr__(self):
        if not self.terms:
            return "PathElement(0)"
        bits = " + ".join(f"{c}*{self.quiver.path_label(p)}" for p, c in self.terms.items())
        return f"PathElement({bits})"


def path_unit(q):
    """1 = sum of all trivial paths."""
    return PathElement(q, {q.trivial_path(v): 1 for v in range(len(q.vertices))})


def multiply_path_elements(a, b):
    """Bilinear extension of path concatenation; incomposable pairs give 0."""
    a._check(b)
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
        self._piece_cache = {}


def _path_index(q, d):
    paths = qv.enumerate_paths(q, d)
    return paths, {p: i for i, p in enumerate(paths)}


def element_row(elem, index):
    """Coefficient row of a homogeneous element over an indexed path basis."""
    return {index[p]: c for p, c in elem.terms.items()}


def row_element(q, row, paths):
    return PathElement(q, {paths[i]: c for i, c in row.items()})


def ideal_graded_piece(ideal, d):
    """Canonical subspace I_d inside kQ_d.

    Built as span(degree-d generators) + kQ1 * I_{d-1} + I_{d-1} * kQ1,
    memoized upward from degree 2.  Valid because every monomial sandwich
    around a generator factors through a length-one extension.
    """
    if d in ideal._piece_cache:
        return ideal._piece_cache[d]
    q = ideal.quiver
    paths, index = _path_index(q, d)
    ech = Echelon(len(paths))
    if d >= 2:
        for g in ideal.generators:
            if g.degree() == d:
                ech.add(element_row(g, index))
        if d > 2:
            # distinct paths stay distinct after one arrow, so nothing cancels
            prev_paths = qv.enumerate_paths(q, d - 1)
            arrows = [q.arrow_path(i) for i in range(len(q.arrows))]
            for row in ideal_graded_piece(ideal, d - 1).basis:
                terms = [(prev_paths[i], c) for i, c in row.items()]
                for arr in arrows:
                    for image in ([(qv.compose_paths(q, arr, p), c) for p, c in terms],
                                  [(qv.compose_paths(q, p, arr), c) for p, c in terms]):
                        image_row = {index[r]: c for r, c in image if r is not None}
                        if image_row:
                            ech.add(image_row)
    piece = ech.finalize()
    ideal._piece_cache[d] = piece
    return piece


def quotient_dimension(ideal, d):
    """dim kQ_d - dim I_d."""
    total = len(qv.enumerate_paths(ideal.quiver, d))
    return total - ideal_graded_piece(ideal, d).dim


class QuadraticData:
    """A relation space R inside kQ_2 over the composable-arrow-pair basis."""

    def __init__(self, q, relation_space):
        self.quiver = q
        self.relation_space = relation_space
        self._dual_rows = None

    @property
    def ambient_dim(self):
        return self.relation_space.ambient_dim

    def dual_rows(self):
        """quadratic_dual_rows(self), computed on the first request and then kept."""
        if self._dual_rows is None:
            self._dual_rows = quadratic_dual_rows(self)
        return self._dual_rows


def composable_pairs(q):
    """Ordered basis of kQ_2 as arrow-index pairs, lex in (first, second).

    This coincides with the degree-2 path enumeration order.
    """
    pairs = []
    for i, a in enumerate(q.arrows):
        for j in q.out_arrows[a.target]:
            pairs.append((i, j))
    return pairs


def quadratic_data(ideal):
    """Relation space spanned by the (degree-2 only) generators."""
    for g in ideal.generators:
        if g.degree() != 2:
            raise UnsupportedShapeError(
                f"quadratic data requires degree-2 generators, found degree {g.degree()}")
    q = ideal.quiver
    pairs = composable_pairs(q)
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    rows = []
    for g in ideal.generators:
        rows.append({pair_index[(p.arrows[0], p.arrows[1])]: c for p, c in g.terms.items()})
    return QuadraticData(q, Subspace.from_rows(len(pairs), rows))


def quadratic_dual_rows(qd):
    """Canonical basis of the orthogonal complement of R inside kQ_2.

    Each free column f of R's echelon basis spans one kernel vector, e_f
    plus the column-f entries of the pivot residues.  Rows stay on the
    composable-pair coordinates of the original quiver; quadratic_dual
    transports them to the opposite quiver.
    """
    rel = qd.relation_space
    residues = rel.residues()
    pivots = set(rel.pivots)
    kernel = [{f: 1, **{p: residues[p][f] for p in rel.pivots if f in residues[p]}}
              for f in range(rel.ambient_dim) if f not in pivots]
    return Subspace.from_rows(rel.ambient_dim, kernel).basis


def quadratic_dual(qd):
    """Quadratic dual relation space, living on the opposite quiver.

    The pairing identifies the opposite path (pq)* = q* p* with the dual
    basis vector of pq, so a Q-pair (i, j) corresponds to the opposite-quiver
    pair (j, i); the dual space is the null space of the relation matrix,
    transported along that index bijection.
    """
    q = qd.quiver
    opp = qv.opposite_quiver(q)
    pairs = composable_pairs(q)
    opp_pairs = composable_pairs(opp)
    opp_index = {pair: n for n, pair in enumerate(opp_pairs)}
    # Q-pair (i, j) -> opposite pair (j, i); arrow indices are shared.
    transport = [opp_index[(j, i)] for (i, j) in pairs]
    moved = [{transport[c]: x for c, x in row.items()}
             for row in qd.dual_rows()]
    return QuadraticData(opp, Subspace.from_rows(len(opp_pairs), moved))


def quadratic_ideal(qd):
    """The HomogeneousIdeal generated by a relation space's basis."""
    q = qd.quiver
    paths = qv.enumerate_paths(q, 2)
    gens = [row_element(q, row, paths) for row in qd.relation_space.basis]
    return HomogeneousIdeal(q, gens)


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


def format_path_element(elem):
    """Text form matching the face-element convention: 'coeff * label' terms."""
    q = elem.quiver
    if elem.is_zero():
        return "0"
    parts = []
    for p in sorted(elem.terms, key=lambda p: (p.length, p.arrows, p.start)):
        parts.append(f"{elem.terms[p]} * {q.path_label(p)}")
    return " + ".join(parts)


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
        total = PathElement(q, {})
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
            total = total + PathElement(q, {path: coeff})
        relations.append(total)
    return relations
