"""Face algebra of a quiver: its basis x[a;b] and the one element text form.

The basis of h(Q) is x[a;b] over pairs of equal-length paths; faceq.wba
tabulates its structure constants, and x[a;b] of degree d has index
i_a*n + i_b over the n paths of length d.  Elements are coordinate dicts
over such indexed bases, for h(Q) and for kQ alike.  Their text form is
'coeff * label' terms joined by ' + ': format_coords writes it from a
basis's labels and parse_element reads a face element back.  Coefficients
are exact rationals, never floats.
"""

import sys
from collections import namedtuple

from . import pathalg as pa
from . import quiver as qv
from .errors import ParseError, shown
from .linalg import bump, int_where_integral
from .quiver import Path


class FaceMonomial(namedtuple("FaceMonomial", "left right")):
    """x[a;b] for two paths a and b of one length."""
    __slots__ = ()


def face_basis(q, degree):
    """Monomials x[a;b] over ordered path pairs of the given length."""
    paths = qv.enumerate_paths(q, degree)
    return [FaceMonomial(a, b) for a in paths for b in paths]


def format_coords(labels, coords):
    """Text form of a coordinate dict over a basis with these labels:
    'coeff * label' terms in index order joined by ' + ', or '0'.  Values of
    any size print in full: the interpreter's int-to-text digit limit, where
    it has one, is lifted while they are written and then restored."""
    if not coords:
        return "0"
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return " + ".join(f"{coords[i]} * {labels[i]}" for i in sorted(coords))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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


def parse_terms(q, text):
    """Read the text form of a face element as (FaceMonomial, coefficient) terms.

    Terms are joined by ' + '; each term is 'coeff * x[a;b]' with a rational
    coefficient such as '2' or '-1/3', read by pathalg.parse_scalar (so
    '1e3' is refused), which may be omitted (with its ' * ') when it is 1.
    Both paths in a monomial must have the same length.
    """
    if not isinstance(text, str):
        raise ParseError("face element must be given as a string")
    body = text.strip()
    if body in ("", "0"):
        return []
    terms = []
    for part in body.split(" + "):
        part = part.strip()
        if " * " in part:
            coeff_text, _, mono_text = part.partition(" * ")
            try:
                coeff = pa.parse_scalar(coeff_text.strip())
            except ParseError:
                raise ParseError(f"bad coefficient {shown(coeff_text.strip())}") from None
        else:
            coeff, mono_text = 1, part
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
    return terms


def parse_element(q, text, d):
    """Read a face element of degree d as a coordinate dict on the degree-d face basis.

    Over the n paths of length d, x[a;b] has index i_a*n + i_b, with i_a
    the position of a in enumeration order (quiver.path_index).  Repeated
    monomials are summed and zero sums dropped; every term left must have
    degree d.  Values are ints where integral.
    """
    summed = {}
    for mono, coeff in parse_terms(q, text):
        bump(summed, mono, coeff)
    n = qv.path_count(q, d)
    coords = {}
    for (left, right), coeff in summed.items():
        if left.length != d:
            raise ParseError(f"degree-{d} entry holds a degree-{left.length} term")
        coords[qv.path_index(q, left) * n + qv.path_index(q, right)] = int_where_integral(coeff)
    return coords


def face_idempotents(q, side):
    """Spanning idempotents of the counital subalgebras, indexed by vertex,
    as degree-0 coordinate dicts.

    Source side: a_j = sum_i x[e:i;e:j], at the indices i*n + j.
    Target side: a'_j = sum_i x[e:j;e:i], at the indices j*n + i.
    """
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    n = len(q.vertices)
    if side == "source":
        return [{i * n + j: 1 for i in range(n)} for j in range(n)]
    return [{j * n + i: 1 for i in range(n)} for j in range(n)]
