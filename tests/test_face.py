"""Face algebra of a quiver: basis, product, coproduct, counit, idempotents,
and the element text form.

The product, coproduct, counit and counital maps are those of the object
oracle (tests/oracle.py), checked against their closed forms here; the
library's tables are checked against the oracle in test_wba.py.
"""

from fractions import Fraction
import random

from hypothesis import given, reject, settings
from hypothesis import strategies as st
import pytest

from faceq import face as fc
from faceq import quiver as qv
from faceq import wba
from faceq.errors import ParseError
from faceq.linalg import Subspace

from conftest import assert_reader_matches_oracle
from fleet import FLEET, doubled_three_cycle, one_loop, q_bullets, three_cycle, two_loop
from oracle import (FaceElement, PathElement, counital_map, double_quiver, element_rows,
                    face_coproduct, face_counit, face_element, face_multiply, face_unit,
                    format_element, monomial_degree, monomial_label, parse_face_element,
                    path_text, subspace_equal)


def mono(q, left, right):
    return fc.FaceMonomial(fc.parse_path(q, left), fc.parse_path(q, right))


def elem(q, text):
    return parse_face_element(q, text)


def all_monomials(q, max_degree):
    out = []
    for d in range(max_degree + 1):
        out.extend(fc.face_basis(q, d))
    return out


def test_face_basis_sizes():
    assert len(fc.face_basis(two_loop(), 1)) == 4
    assert len(fc.face_basis(q_bullets(), 0)) == 4
    assert len(fc.face_basis(three_cycle(), 2)) == 9


def test_face_basis_size_is_path_count_squared():
    for make in FLEET.values():
        q = make()
        for d in range(5):
            assert len(fc.face_basis(q, d)) == qv.path_count(q, d) ** 2


def test_product_on_vertex_monomials():
    q = q_bullets()
    for i in range(2):
        for j in range(2):
            x_ij = FaceElement(q, {mono(q, f"e:{i+1}", f"e:{j+1}"): 1})
            for k in range(2):
                for l in range(2):
                    x_kl = FaceElement(q, {mono(q, f"e:{k+1}", f"e:{l+1}"): 1})
                    prod = face_multiply(x_ij, x_kl)
                    if (i, j) == (k, l):
                        assert prod == x_ij
                    else:
                        assert prod.is_zero()


def test_product_with_target_idempotent():
    q = three_cycle()
    x = elem(q, "x[p1;p2]")
    target = FaceElement(q, {mono(q, "e:2", "e:3"): 1})
    assert face_multiply(x, target) == x


def test_product_incomposable_vanishes():
    q = three_cycle()
    assert face_multiply(elem(q, "x[p1;p1]"), elem(q, "x[p3;p3]")).is_zero()


def test_product_rule_exhaustive():
    """x[a;b] x[c;d] = x[ac;bd] when both sides compose, 0 otherwise."""
    q = three_cycle()
    monos = all_monomials(q, 2)
    for m in monos:
        for n in monos:
            if monomial_degree(m) + monomial_degree(n) > 3:
                continue
            prod = face_multiply(FaceElement(q, {m: 1}), FaceElement(q, {n: 1}))
            left = qv.compose_paths(q, m.left, n.left)
            right = qv.compose_paths(q, m.right, n.right)
            if left is None or right is None:
                assert prod.is_zero()
            else:
                assert prod == FaceElement(q, {fc.FaceMonomial(left, right): 1})


def test_face_unit_forms():
    assert face_unit(one_loop()) == elem(one_loop(), "x[e:v;e:v]")
    q = q_bullets()
    assert face_unit(q) == elem(
        q, "x[e:1;e:1] + x[e:1;e:2] + x[e:2;e:1] + x[e:2;e:2]")


def test_face_unit_acts_as_identity():
    q = three_cycle()
    unit = face_unit(q)
    for m in all_monomials(q, 3):
        x = FaceElement(q, {m: 1})
        assert face_multiply(unit, x) == x
        assert face_multiply(x, unit) == x


def test_coproduct_examples():
    q1 = one_loop()
    x0 = mono(q1, "e:v", "e:v")
    assert face_coproduct(FaceElement(q1, {x0: 1})).terms == {
        (x0, x0): Fraction(1)}
    q = two_loop()
    delta = face_coproduct(elem(q, "x[t1;t2]"))
    assert delta.terms == {
        (mono(q, "t1", "t1"), mono(q, "t1", "t2")): Fraction(1),
        (mono(q, "t1", "t2"), mono(q, "t2", "t2")): Fraction(1),
    }


def coproduct_of_monomial(q, m):
    return face_coproduct(FaceElement(q, {m: 1}))


def test_coassociativity_exhaustive():
    q = three_cycle()
    for m in all_monomials(q, 3):
        delta = coproduct_of_monomial(q, m)
        left, right = {}, {}
        for (m1, m2), c in delta.terms.items():
            for (n1, n2), d in coproduct_of_monomial(q, m1).terms.items():
                key = (n1, n2, m2)
                left[key] = left.get(key, 0) + c * d
            for (n1, n2), d in coproduct_of_monomial(q, m2).terms.items():
                key = (m1, n1, n2)
                right[key] = right.get(key, 0) + c * d
        assert {k: v for k, v in left.items() if v} == \
               {k: v for k, v in right.items() if v}


def test_counitality_exhaustive():
    q = three_cycle()
    for m in all_monomials(q, 3):
        x = FaceElement(q, {m: 1})
        applied_left = FaceElement(q, {})
        applied_right = FaceElement(q, {})
        for (m1, m2), c in face_coproduct(x).terms.items():
            applied_left = applied_left + (
                c * face_counit(FaceElement(q, {m1: 1}))) * FaceElement(q, {m2: 1})
            applied_right = applied_right + (
                c * face_counit(FaceElement(q, {m2: 1}))) * FaceElement(q, {m1: 1})
        assert applied_left == x
        assert applied_right == x


def test_coproduct_multiplicative_exhaustive():
    q = three_cycle()
    monos = all_monomials(q, 2)
    for m in monos:
        for n in monos:
            if monomial_degree(m) + monomial_degree(n) > 3:
                continue
            u = FaceElement(q, {m: 1})
            v = FaceElement(q, {n: 1})
            lhs = face_coproduct(face_multiply(u, v))
            rhs = face_coproduct(u) * face_coproduct(v)
            assert lhs.terms == rhs.terms


def test_counit_examples():
    q = three_cycle()
    assert face_counit(elem(q, "x[p1.p2;p1.p2]")) == 1
    assert face_counit(elem(q, "x[p1;p2]")) == 0
    assert face_counit(face_unit(q_bullets())) == 2


def test_counit_product_of_deltas_formula():
    """eps of a product of arrow faces is the product of matching deltas."""
    q = three_cycle()
    rng = random.Random(1137)
    for _ in range(20):
        k = rng.randint(1, 4)
        ps = [rng.randrange(3) for _ in range(k)]
        if rng.random() < 0.5:
            start = rng.randrange(3)
            ps = [(start + i) % 3 for i in range(k)]
        qs = [p if rng.random() < 0.7 else rng.randrange(3) for p in ps]
        product = face_unit(q)
        for p, r in zip(ps, qs):
            factor = FaceElement(q, {fc.FaceMonomial(q.arrow_path(p),
                                                        q.arrow_path(r)): 1})
            product = face_multiply(product, factor)
        p_chain = all(q.arrows[a].target == q.arrows[b].source
                      for a, b in zip(ps, ps[1:]))
        q_chain = all(q.arrows[a].target == q.arrows[b].source
                      for a, b in zip(qs, qs[1:]))
        deltas = all(a == b for a, b in zip(ps, qs))
        expected = Fraction(1 if (p_chain and q_chain and deltas) else 0)
        assert face_counit(product) == expected


def test_counital_map_closed_forms():
    q = three_cycle()
    x = elem(q, "x[p1.p2;p1.p2]")
    assert counital_map(x, "source") == elem(
        q, "x[e:1;e:3] + x[e:2;e:3] + x[e:3;e:3]")
    assert counital_map(x, "target") == elem(
        q, "x[e:1;e:1] + x[e:1;e:2] + x[e:1;e:3]")
    assert counital_map(elem(q, "x[p1;p2]"), "source").is_zero()
    assert counital_map(elem(q, "x[p1;p2]"), "target").is_zero()


def test_counital_map_idempotent_on_random_elements():
    q = three_cycle()
    rng = random.Random(552)
    monos = all_monomials(q, 2)
    for _ in range(20):
        x = FaceElement(q, {m: rng.randint(-3, 3) for m in monos
                               if rng.random() < 0.3})
        for side in ("source", "target"):
            once = counital_map(x, side)
            assert counital_map(once, side) == once


def test_counital_map_rejects_bad_side():
    with pytest.raises(ValueError, match="side must be"):
        counital_map(face_unit(two_loop()), "middle")


def idempotent_coords(q, elements):
    index = {m: i for i, m in enumerate(fc.face_basis(q, 0))}
    rows = []
    for e in elements:
        rows.append({index[m]: c for m, c in e.terms.items()})
    return Subspace.from_rows(len(index), rows)


def test_face_idempotents_orthogonal_and_complete():
    for q in (q_bullets(), three_cycle()):
        for side in ("source", "target"):
            idems = [face_element(q, 0, a) for a in fc.face_idempotents(q, side)]
            total = FaceElement(q, {})
            for a in idems:
                total = total + a
            assert total == face_unit(q)
            for j, a in enumerate(idems):
                for k, b in enumerate(idems):
                    prod = face_multiply(a, b)
                    assert prod == (a if j == k else FaceElement(q, {}))


def test_idempotents_span_counital_image():
    q = three_cycle()
    index = {m: i for i, m in enumerate(fc.face_basis(q, 0))}
    for side in ("source", "target"):
        images = []
        for m in all_monomials(q, 2):
            out = counital_map(FaceElement(q, {m: 1}), side)
            images.append(out)
        image_space = idempotent_coords(q, images)
        idem_space = idempotent_coords(
            q, [face_element(q, 0, a) for a in fc.face_idempotents(q, side)])
        assert len(index) == 9
        assert subspace_equal(image_space, idem_space)


def test_parse_and_format_round_trip():
    q = three_cycle()
    samples = [
        "0",
        "1 * x[p1;p2]",
        "2 * x[e:1;e:2] + -1/3 * x[p1.p2;p1.p2]",
    ]
    for text in samples:
        assert format_element(parse_face_element(q, text)) == text
    bare = parse_face_element(q, "x[p1;p2]")
    assert format_element(bare) == "1 * x[p1;p2]"
    starred = parse_face_element(doubled_three_cycle(), "x[p1*;p2*]")
    assert format_element(starred) == "1 * x[p1*;p2*]"


def test_parse_element_errors():
    q = three_cycle()
    with pytest.raises(ParseError, match="unknown arrow"):
        fc.parse_element(q, "x[zz;p1]", 1)
    with pytest.raises(ParseError, match="different lengths"):
        fc.parse_element(q, "x[p1;p1.p2]", 1)
    with pytest.raises(ParseError, match="do not compose"):
        fc.parse_element(q, "x[p1.p3;p1.p2]", 2)
    with pytest.raises(ParseError, match="bad coefficient"):
        fc.parse_element(q, "two * x[p1;p1]", 1)
    with pytest.raises(ParseError, match="must be given as a string"):
        fc.parse_element(q, 7, 1)
    with pytest.raises(ParseError, match="degree-2 entry holds a degree-1 term"):
        fc.parse_element(q, "x[p1.p2;p1.p2] + x[p1;p1]", 2)
    for coeff in ("1e0", "1E3", "2.5e-1"):
        with pytest.raises(ParseError, match=f"bad coefficient '{coeff}'"):
            fc.parse_element(q, f"{coeff} * x[p1;p1]", 1)
    assert fc.parse_element(q, "0.25 * x[p1;p2] + -3/6 * x[p3;p3]", 1) == \
        {1: Fraction(1, 4), 8: Fraction(-1, 2)}


# Short names over characters the name grammar allows inside a name, with
# '*', '+', ':' and '/' among them; the constructor rejects the rest ('+'
# alone, an 'e:' prefix), so every quiver it builds must round-trip.
NAME_CHARS = "abex019*+:/-_é"
names = st.text(alphabet=NAME_CHARS, min_size=1, max_size=4)


@st.composite
def named_quivers(draw):
    vertices = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    ends = st.integers(min_value=0, max_value=len(vertices) - 1)
    arrows = [(name, draw(ends), draw(ends))
              for name in draw(st.lists(names, max_size=4, unique=True))]
    try:
        return qv.Quiver(vertices, arrows)
    except ParseError:
        reject()


def codec_variants(q):
    """q, its opposite and, unless a reversed name clashes, its double."""
    yield q
    yield qv.opposite_quiver(q)
    names = {a.name for a in q.arrows}
    if not any(a.name + "*" in names for a in q.arrows):
        yield double_quiver(q)


nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@settings(max_examples=100, deadline=None)
@given(named_quivers(), st.data())
def test_face_text_round_trips_on_random_quivers(q, data):
    for v in codec_variants(q):
        monos = [fc.FaceMonomial(a, b) for d in range(3)
                 for a in qv.enumerate_paths(v, d) for b in qv.enumerate_paths(v, d)]
        picks = st.sampled_from(monos)
        x = FaceElement(v, data.draw(st.dictionaries(picks, nonzero_rationals, max_size=4)))
        text = format_element(x)
        assert parse_face_element(v, text) == x
        assert format_element(parse_face_element(v, text)) == text
        m = data.draw(picks)
        assert parse_face_element(v, monomial_label(v, m)) == FaceElement(v, {m: 1})


@settings(max_examples=100, deadline=None)
@given(named_quivers(), st.data())
def test_coordinate_text_round_trips_on_random_quivers(q, data):
    """The one codec: format_coords over the face labels that the reports
    use, read back by parse_element, on q, its opposite and its double;
    values read back are ints wherever they are integral."""
    for v in codec_variants(q):
        labels = wba.face_algebra(wba.path_algebra_presentation(v, 2)).labels
        d = data.draw(st.sampled_from([d for d in range(3) if labels[d]]))
        coords = data.draw(st.dictionaries(st.integers(0, len(labels[d]) - 1),
                                           nonzero_rationals, max_size=4))
        text = fc.format_coords(labels[d], coords)
        back = fc.parse_element(v, text, d)
        assert back == coords
        assert all(type(c) is int or c.denominator != 1 for c in back.values())
        assert fc.format_coords(labels[d], back) == text
        i = data.draw(st.integers(0, len(labels[d]) - 1))
        assert fc.parse_element(v, labels[d][i], d) == {i: 1}
        assert type(fc.parse_element(v, labels[d][i], d)[i]) is int


def parse_path_text(q, text):
    """Read path_text's 'coeff * label' terms back with parse_path."""
    if text == "0":
        return PathElement(q, {})
    terms = []
    for part in text.split(" + "):
        coeff, _, label = part.partition(" * ")
        terms.append((fc.parse_path(q, label), Fraction(coeff)))
    return PathElement(q, terms)


@settings(max_examples=100, deadline=None)
@given(named_quivers(), st.data())
def test_path_text_round_trips_on_random_quivers(q, data):
    for v in codec_variants(q):
        paths = [p for d in range(3) for p in qv.enumerate_paths(v, d)]
        for p in paths:
            assert fc.parse_path(v, v.path_label(p)) == p
        x = PathElement(v, data.draw(st.dictionaries(st.sampled_from(paths),
                                                     nonzero_rationals, max_size=4)))
        text = path_text(x)
        assert parse_path_text(v, text) == x
        assert path_text(parse_path_text(v, text)) == text
        # the relations document the CLI reads spells the same paths step by step
        doc = [[{"coeff": str(c), "path": v.path_label(p).split(".")}
                for p, c in x.terms.items()]]
        rows = assert_reader_matches_oracle(doc, v)
        if x.degree() is not None and x.degree() >= 2:
            assert rows == element_rows([x])
