"""Face algebra of a quiver: basis, product, coproduct, counit, idempotents."""

from fractions import Fraction
import random

from hypothesis import given, reject, settings
from hypothesis import strategies as st
import pytest

from faceq import face as fc
from faceq import pathalg as pa
from faceq import quiver as qv
from faceq.errors import ParseError
from faceq.linalg import Subspace, subspace_equal

from fleet import FLEET, doubled_three_cycle, one_loop, q_bullets, three_cycle, two_loop


def mono(q, left, right):
    return fc.FaceMonomial(fc.parse_path(q, left), fc.parse_path(q, right))


def elem(q, text):
    return fc.parse_element(q, text)


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
            x_ij = fc.FaceElement(q, {mono(q, f"e:{i+1}", f"e:{j+1}"): 1})
            for k in range(2):
                for l in range(2):
                    x_kl = fc.FaceElement(q, {mono(q, f"e:{k+1}", f"e:{l+1}"): 1})
                    prod = fc.face_multiply(x_ij, x_kl)
                    if (i, j) == (k, l):
                        assert prod == x_ij
                    else:
                        assert prod.is_zero()


def test_product_with_target_idempotent():
    q = three_cycle()
    x = elem(q, "x[p1;p2]")
    target = fc.FaceElement(q, {mono(q, "e:2", "e:3"): 1})
    assert fc.face_multiply(x, target) == x


def test_product_incomposable_vanishes():
    q = three_cycle()
    assert fc.face_multiply(elem(q, "x[p1;p1]"), elem(q, "x[p3;p3]")).is_zero()


def test_product_rule_exhaustive():
    """x[a;b] x[c;d] = x[ac;bd] when both sides compose, 0 otherwise."""
    q = three_cycle()
    monos = all_monomials(q, 2)
    for m in monos:
        for n in monos:
            if fc.monomial_degree(m) + fc.monomial_degree(n) > 3:
                continue
            prod = fc.face_multiply(fc.FaceElement(q, {m: 1}),
                                    fc.FaceElement(q, {n: 1}))
            left = qv.compose_paths(q, m.left, n.left)
            right = qv.compose_paths(q, m.right, n.right)
            if left is None or right is None:
                assert prod.is_zero()
            else:
                assert prod == fc.FaceElement(q, {fc.FaceMonomial(left, right): 1})


def test_face_unit_forms():
    assert fc.face_unit(one_loop()) == elem(one_loop(), "x[e:v;e:v]")
    q = q_bullets()
    assert fc.face_unit(q) == elem(
        q, "x[e:1;e:1] + x[e:1;e:2] + x[e:2;e:1] + x[e:2;e:2]")


def test_face_unit_acts_as_identity():
    q = three_cycle()
    unit = fc.face_unit(q)
    for m in all_monomials(q, 3):
        x = fc.FaceElement(q, {m: 1})
        assert fc.face_multiply(unit, x) == x
        assert fc.face_multiply(x, unit) == x


def test_coproduct_examples():
    q1 = one_loop()
    x0 = mono(q1, "e:v", "e:v")
    assert fc.face_coproduct(fc.FaceElement(q1, {x0: 1})).terms == {
        (x0, x0): Fraction(1)}
    q = two_loop()
    delta = fc.face_coproduct(elem(q, "x[t1;t2]"))
    assert delta.terms == {
        (mono(q, "t1", "t1"), mono(q, "t1", "t2")): Fraction(1),
        (mono(q, "t1", "t2"), mono(q, "t2", "t2")): Fraction(1),
    }


def coproduct_of_monomial(q, m):
    return fc.face_coproduct(fc.FaceElement(q, {m: 1}))


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
        x = fc.FaceElement(q, {m: 1})
        applied_left = fc.FaceElement(q, {})
        applied_right = fc.FaceElement(q, {})
        for (m1, m2), c in fc.face_coproduct(x).terms.items():
            applied_left = applied_left + (
                c * fc.face_counit(fc.FaceElement(q, {m1: 1}))) * fc.FaceElement(q, {m2: 1})
            applied_right = applied_right + (
                c * fc.face_counit(fc.FaceElement(q, {m2: 1}))) * fc.FaceElement(q, {m1: 1})
        assert applied_left == x
        assert applied_right == x


def test_coproduct_multiplicative_exhaustive():
    q = three_cycle()
    monos = all_monomials(q, 2)
    for m in monos:
        for n in monos:
            if fc.monomial_degree(m) + fc.monomial_degree(n) > 3:
                continue
            u = fc.FaceElement(q, {m: 1})
            v = fc.FaceElement(q, {n: 1})
            lhs = fc.face_coproduct(fc.face_multiply(u, v))
            rhs = fc.face_coproduct(u) * fc.face_coproduct(v)
            assert lhs.terms == rhs.terms


def test_counit_examples():
    q = three_cycle()
    assert fc.face_counit(elem(q, "x[p1.p2;p1.p2]")) == 1
    assert fc.face_counit(elem(q, "x[p1;p2]")) == 0
    assert fc.face_counit(fc.face_unit(q_bullets())) == 2


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
        product = fc.face_unit(q)
        for p, r in zip(ps, qs):
            factor = fc.FaceElement(q, {fc.FaceMonomial(q.arrow_path(p),
                                                        q.arrow_path(r)): 1})
            product = fc.face_multiply(product, factor)
        p_chain = all(q.arrows[a].target == q.arrows[b].source
                      for a, b in zip(ps, ps[1:]))
        q_chain = all(q.arrows[a].target == q.arrows[b].source
                      for a, b in zip(qs, qs[1:]))
        deltas = all(a == b for a, b in zip(ps, qs))
        expected = Fraction(1 if (p_chain and q_chain and deltas) else 0)
        assert fc.face_counit(product) == expected


def test_counital_map_closed_forms():
    q = three_cycle()
    x = elem(q, "x[p1.p2;p1.p2]")
    assert fc.counital_map(x, "source") == elem(
        q, "x[e:1;e:3] + x[e:2;e:3] + x[e:3;e:3]")
    assert fc.counital_map(x, "target") == elem(
        q, "x[e:1;e:1] + x[e:1;e:2] + x[e:1;e:3]")
    assert fc.counital_map(elem(q, "x[p1;p2]"), "source").is_zero()
    assert fc.counital_map(elem(q, "x[p1;p2]"), "target").is_zero()


def test_counital_map_idempotent_on_random_elements():
    q = three_cycle()
    rng = random.Random(552)
    monos = all_monomials(q, 2)
    for _ in range(20):
        x = fc.FaceElement(q, {m: rng.randint(-3, 3) for m in monos
                               if rng.random() < 0.3})
        for side in ("source", "target"):
            once = fc.counital_map(x, side)
            assert fc.counital_map(once, side) == once


def test_counital_map_rejects_bad_side():
    with pytest.raises(ValueError, match="side must be"):
        fc.counital_map(fc.face_unit(two_loop()), "middle")


def idempotent_coords(q, elements):
    index = {m: i for i, m in enumerate(fc.face_basis(q, 0))}
    rows = []
    for e in elements:
        rows.append({index[m]: c for m, c in e.terms.items()})
    return Subspace.from_rows(len(index), rows)


def test_face_idempotents_orthogonal_and_complete():
    for q in (q_bullets(), three_cycle()):
        for side in ("source", "target"):
            idems = fc.face_idempotents(q, side)
            total = fc.FaceElement(q, {})
            for a in idems:
                total = total + a
            assert total == fc.face_unit(q)
            for j, a in enumerate(idems):
                for k, b in enumerate(idems):
                    prod = fc.face_multiply(a, b)
                    assert prod == (a if j == k else fc.FaceElement(q, {}))


def test_idempotents_span_counital_image():
    q = three_cycle()
    index = {m: i for i, m in enumerate(fc.face_basis(q, 0))}
    for side in ("source", "target"):
        images = []
        for m in all_monomials(q, 2):
            out = fc.counital_map(fc.FaceElement(q, {m: 1}), side)
            images.append(out)
        image_space = idempotent_coords(q, images)
        idem_space = idempotent_coords(q, fc.face_idempotents(q, side))
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
        assert fc.format_element(fc.parse_element(q, text)) == text
    bare = fc.parse_element(q, "x[p1;p2]")
    assert fc.format_element(bare) == "1 * x[p1;p2]"
    starred = fc.parse_element(doubled_three_cycle(), "x[p1*;p2*]")
    assert fc.format_element(starred) == "1 * x[p1*;p2*]"


def test_parse_element_errors():
    q = three_cycle()
    with pytest.raises(ParseError, match="unknown arrow"):
        fc.parse_element(q, "x[zz;p1]")
    with pytest.raises(ParseError, match="different lengths"):
        fc.parse_element(q, "x[p1;p1.p2]")
    with pytest.raises(ParseError, match="do not compose"):
        fc.parse_element(q, "x[p1.p3;p1.p2]")
    with pytest.raises(ParseError, match="bad coefficient"):
        fc.parse_element(q, "two * x[p1;p1]")
    with pytest.raises(ParseError, match="must be given as a string"):
        fc.parse_element(q, 7)


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
        yield qv.double_quiver(q)


nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@settings(max_examples=100, deadline=None)
@given(named_quivers(), st.data())
def test_face_text_round_trips_on_random_quivers(q, data):
    for v in codec_variants(q):
        monos = [fc.FaceMonomial(a, b) for d in range(3)
                 for a in qv.enumerate_paths(v, d) for b in qv.enumerate_paths(v, d)]
        picks = st.sampled_from(monos)
        x = fc.FaceElement(v, data.draw(st.dictionaries(picks, nonzero_rationals, max_size=4)))
        text = fc.format_element(x)
        assert fc.parse_element(v, text) == x
        assert fc.format_element(fc.parse_element(v, text)) == text
        m = data.draw(picks)
        assert fc.parse_element(v, fc.monomial_label(v, m)) == fc.FaceElement(v, {m: 1})


def parse_path_text(q, text):
    """Read format_path_element's 'coeff * label' terms back with parse_path."""
    if text == "0":
        return pa.PathElement(q, {})
    terms = []
    for part in text.split(" + "):
        coeff, _, label = part.partition(" * ")
        terms.append((fc.parse_path(q, label), Fraction(coeff)))
    return pa.PathElement(q, terms)


@settings(max_examples=100, deadline=None)
@given(named_quivers(), st.data())
def test_path_text_round_trips_on_random_quivers(q, data):
    for v in codec_variants(q):
        paths = [p for d in range(3) for p in qv.enumerate_paths(v, d)]
        for p in paths:
            assert fc.parse_path(v, v.path_label(p)) == p
        x = pa.PathElement(v, data.draw(st.dictionaries(st.sampled_from(paths),
                                                        nonzero_rationals, max_size=4)))
        text = pa.format_path_element(x)
        assert parse_path_text(v, text) == x
        assert pa.format_path_element(parse_path_text(v, text)) == text
        # the relations document the CLI reads spells the same paths step by step
        doc = [[{"coeff": str(c), "path": v.path_label(p).split(".")}
                for p, c in x.terms.items()]]
        assert pa.parse_relations(doc, v) == [x]
