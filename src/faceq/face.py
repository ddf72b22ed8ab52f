"""Face algebra of a quiver: basis x[a;b] over pairs of equal-length paths.

Multiplication concatenates componentwise (zero when either side fails to
compose), the coproduct sums over middle paths of the shared length, and
the counit is the diagonal indicator.  Coefficients are exact rationals,
never floats.
"""

from fractions import Fraction
from typing import NamedTuple

from . import quiver as qv
from .errors import ParseError
from .quiver import Path


class FaceMonomial(NamedTuple):
    left: Path
    right: Path


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


def face_basis(q, degree):
    """Monomials x[a;b] over ordered path pairs of the given length."""
    paths = qv.enumerate_paths(q, degree)
    return [FaceMonomial(a, b) for a in paths for b in paths]


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


def parse_path(q, text):
    """Parse the path_label text form: 'e:<vertex>' or dot-joined arrow names."""
    text = text.strip()
    if text.startswith("e:"):
        label = text[2:]
        if label not in q.vertex_index:
            raise ParseError(f"unknown vertex {label!r}")
        return q.trivial_path(q.vertex_index[label])
    arrows = []
    for name in text.split("."):
        if name not in q.arrow_index:
            raise ParseError(f"unknown arrow {name!r}")
        arrows.append(q.arrow_index[name])
    for prev, nxt in zip(arrows, arrows[1:]):
        if q.arrows[prev].target != q.arrows[nxt].source:
            raise ParseError(
                f"arrows {q.arrows[prev].name!r} and {q.arrows[nxt].name!r} do not compose")
    return Path(q.arrows[arrows[0]].source, tuple(arrows))


def parse_element(q, text):
    """Parse the format_element text form back into a FaceElement.

    Terms are joined by ' + '; each term is 'coeff * x[a;b]' with a rational
    coefficient such as '2' or '-1/3', which may be omitted (with its ' * ')
    when it is 1.  Both paths in a monomial must have the same length.
    """
    if not isinstance(text, str):
        raise ParseError("face element must be given as a string")
    body = text.strip()
    if body in ("", "0"):
        return FaceElement(q, {})
    terms = []
    for part in body.split(" + "):
        part = part.strip()
        if " * " in part:
            coeff_text, _, mono_text = part.partition(" * ")
            try:
                coeff = Fraction(coeff_text.strip())
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad coefficient {coeff_text.strip()!r}") from None
        else:
            coeff, mono_text = Fraction(1), part
        mono_text = mono_text.strip()
        if not (mono_text.startswith("x[") and mono_text.endswith("]")
                and ";" in mono_text):
            raise ParseError(f"bad face monomial {mono_text!r}")
        left_text, _, right_text = mono_text[2:-1].partition(";")
        left = parse_path(q, left_text)
        right = parse_path(q, right_text)
        if left.length != right.length:
            raise ParseError(f"paths in {mono_text!r} have different lengths")
        terms.append((FaceMonomial(left, right), coeff))
    return FaceElement(q, terms)


def face_idempotents(q, side):
    """Spanning idempotents of the counital subalgebras, indexed by vertex.

    Source side: a_j = sum_i x[e:i;e:j].  Target side: a'_j = sum_i x[e:j;e:i].
    """
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    n = len(q.vertices)
    out = []
    for j in range(n):
        if side == "source":
            terms = {FaceMonomial(q.trivial_path(i), q.trivial_path(j)): 1 for i in range(n)}
        else:
            terms = {FaceMonomial(q.trivial_path(j), q.trivial_path(i)): 1 for i in range(n)}
        out.append(FaceElement(q, terms))
    return out
