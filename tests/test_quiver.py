"""Quivers, deterministic path enumeration, opposites, doubles, path reversal."""

from itertools import product

from hypothesis import given
from hypothesis import strategies as st
import pytest

from faceq import quiver as qv
from faceq.errors import ParseError, UnsupportedShapeError

from fleet import FLEET, q_bullets, three_cycle, two_loop
from oracle import double_quiver


def brute_force_paths(q, length):
    """Filter all arrow-index words by composability; the enumeration oracle."""
    if length == 0:
        return [q.trivial_path(v) for v in range(len(q.vertices))]
    found = []
    for word in product(range(len(q.arrows)), repeat=length):
        ok = all(q.arrows[word[i]].target == q.arrows[word[i + 1]].source
                 for i in range(length - 1))
        if ok:
            found.append(qv.Path(q.arrows[word[0]].source, word))
    return found


def test_parse_two_loop():
    q = qv.parse_quiver({"vertices": ["v"], "arrows": [
        {"name": "t1", "source": "v", "target": "v"},
        {"name": "t2", "source": "v", "target": "v"}]})
    assert q == two_loop()


def test_parse_no_arrows():
    q = qv.parse_quiver({"vertices": ["1", "2"], "arrows": []})
    assert q == q_bullets()


def test_parse_three_cycle():
    q = qv.parse_quiver({"vertices": ["1", "2", "3"], "arrows": [
        {"name": "p1", "source": "1", "target": "2"},
        {"name": "p2", "source": "2", "target": "3"},
        {"name": "p3", "source": "3", "target": "1"}]})
    assert q == three_cycle()


def test_parse_duplicate_vertex():
    with pytest.raises(ParseError, match="duplicate vertex"):
        qv.parse_quiver({"vertices": ["v", "v"], "arrows": []})


def test_parse_dangling_endpoint():
    with pytest.raises(ParseError, match="unknown source"):
        qv.parse_quiver({"vertices": ["v"], "arrows": [
            {"name": "a", "source": "w", "target": "v"}]})


def test_parse_duplicate_arrow_name():
    with pytest.raises(ParseError, match="duplicate arrow"):
        qv.parse_quiver({"vertices": ["v"], "arrows": [
            {"name": "a", "source": "v", "target": "v"},
            {"name": "a", "source": "v", "target": "v"}]})


@pytest.mark.parametrize("vertices, arrows, error", [
    (["v", "w", "v"], [], "duplicate vertex label 'v'"),
    (["v"], [("a", 0, 0), ("b", 0, 0), ("a", 0, 0)], "duplicate arrow name 'a'"),
])
def test_quiver_names_the_duplicate(vertices, arrows, error):
    with pytest.raises(ParseError, match=error):
        qv.Quiver(vertices, arrows)
    doc = {"vertices": vertices, "arrows": [
        {"name": n, "source": vertices[s], "target": vertices[t]} for n, s, t in arrows]}
    with pytest.raises(ParseError, match=error):
        qv.parse_quiver(doc)


BAD_NAMES = ["", "a.b", "x;y", "x[1", "y]", "a b", "a\tb", "e:a", "+", 7]


@pytest.mark.parametrize("name", BAD_NAMES, ids=repr)
def test_parse_rejects_bad_arrow_names(name):
    with pytest.raises(ParseError, match="bad arrow name"):
        qv.parse_quiver({"vertices": ["v"], "arrows": [
            {"name": name, "source": "v", "target": "v"}]})


@pytest.mark.parametrize("name", BAD_NAMES, ids=repr)
def test_parse_rejects_bad_vertex_names(name):
    with pytest.raises(ParseError, match="bad vertex name|must be a list of strings"):
        qv.parse_quiver({"vertices": [name], "arrows": []})


def test_name_grammar_guards_the_constructor():
    with pytest.raises(ParseError, match="bad arrow name"):
        qv.Quiver(["v"], [("a.b", 0, 0)])
    starred = qv.parse_quiver({"vertices": ["v", "e"], "arrows": [
        {"name": "p1*", "source": "v", "target": "e"}]})
    assert double_quiver(starred).arrows[1].name == "p1**"


def test_enumerate_two_loop_degree_three():
    assert len(qv.enumerate_paths(two_loop(), 3)) == 8


def test_enumerate_no_arrows():
    assert qv.enumerate_paths(q_bullets(), 1) == []


def test_enumerate_three_cycle_full_turns():
    paths = qv.enumerate_paths(three_cycle(), 3)
    assert len(paths) == 3
    q = three_cycle()
    for p in paths:
        assert q.path_source(p) == q.path_target(p)


def test_enumeration_matches_brute_force_and_adjacency_powers():
    for name, make in FLEET.items():
        q = make()
        for length in range(5):
            paths = qv.enumerate_paths(q, length)
            assert sorted(paths) == sorted(brute_force_paths(q, length)), name
            assert len(paths) == qv.path_count(q, length), name


def test_compose_with_trivial_paths():
    q = three_cycle()
    p = q.arrow_path(0)
    e1 = q.trivial_path(0)
    e2 = q.trivial_path(1)
    assert qv.compose_paths(q, e1, p) == p
    assert qv.compose_paths(q, p, e2) == p


def test_compose_incomposable():
    q = three_cycle()
    assert qv.compose_paths(q, q.arrow_path(0), q.arrow_path(2)) is None


def test_compose_three_cycle_step():
    q = three_cycle()
    p = qv.compose_paths(q, q.arrow_path(0), q.arrow_path(1))
    assert p == qv.Path(0, (0, 1))
    assert q.path_label(p) == "p1.p2"


def test_compose_associative():
    q = three_cycle()
    pools = [qv.enumerate_paths(q, d) for d in range(3)]
    everything = [p for pool in pools for p in pool]
    for a in everything:
        for b in everything:
            for c in everything:
                ab = qv.compose_paths(q, a, b)
                bc = qv.compose_paths(q, b, c)
                left = qv.compose_paths(q, ab, c) if ab is not None else None
                right = qv.compose_paths(q, a, bc) if bc is not None else None
                assert left == right


def test_opposite_quiver():
    q = three_cycle()
    opp = qv.opposite_quiver(q)
    assert opp.vertices == q.vertices
    assert [a.name for a in opp.arrows] == ["p1*", "p2*", "p3*"]
    assert [(a.source, a.target) for a in opp.arrows] == [(1, 0), (2, 1), (0, 2)]


def test_opposite_twice_restores_structure():
    q = three_cycle()
    opp2 = qv.opposite_quiver(qv.opposite_quiver(q))
    assert [a.name for a in opp2.arrows] == ["p1**", "p2**", "p3**"]
    assert [(a.source, a.target) for a in opp2.arrows] == [
        (a.source, a.target) for a in q.arrows]


def test_double_quiver():
    q = three_cycle()
    dbl = double_quiver(q)
    assert [a.name for a in dbl.arrows] == ["p1", "p2", "p3", "p1*", "p2*", "p3*"]
    one = qv.Quiver(["v"], [("t1", 0, 0)])
    assert len(double_quiver(one).arrows) == 2
    assert double_quiver(q_bullets()) == q_bullets()


@pytest.mark.parametrize("arrows, name", [
    ([("a", 0, 0), ("a*", 0, 0)], "a"),
    ([("b*", 0, 0), ("c", 0, 0), ("b**", 0, 0)], "b*"),
])
def test_double_quiver_refuses_a_reversed_name_that_is_taken(arrows, name):
    with pytest.raises(UnsupportedShapeError) as err:
        double_quiver(qv.Quiver(["v"], arrows))
    assert str(err.value) == (f"cannot double the quiver: the reverse of arrow {name!r} "
                              f"would be named {name + '*'!r}, which is already an arrow")


def test_star_path_basics():
    q = three_cycle()
    opp = qv.opposite_quiver(q)
    e = q.trivial_path(1)
    assert qv.star_path(q, e) == e
    p = q.arrow_path(0)
    starred = qv.star_path(q, p)
    assert opp.path_label(starred) == "p1*"
    p12 = qv.compose_paths(q, q.arrow_path(0), q.arrow_path(1))
    assert opp.path_label(qv.star_path(q, p12)) == "p2*.p1*"


def test_star_path_involution_and_antihomomorphism():
    q = three_cycle()
    opp = qv.opposite_quiver(q)
    for d in range(4):
        for p in qv.enumerate_paths(q, d):
            assert qv.star_path(opp, qv.star_path(q, p)) == p
    for a in qv.enumerate_paths(q, 1) + qv.enumerate_paths(q, 2):
        for b in qv.enumerate_paths(q, 1) + qv.enumerate_paths(q, 2):
            ab = qv.compose_paths(q, a, b)
            if ab is None:
                continue
            expect = qv.compose_paths(opp, qv.star_path(q, b), qv.star_path(q, a))
            assert qv.star_path(q, ab) == expect


quiver_strategy = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 1),
                  st.integers(min_value=0, max_value=n - 1)),
        min_size=0, max_size=4,
    ).map(lambda ends: qv.Quiver(
        [f"v{i}" for i in range(n)],
        [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)]))
)


@given(quiver_strategy, st.integers(min_value=0, max_value=4))
def test_path_count_matches_enumeration(q, length):
    """Every path, in order: as many as path_count, each composable, arrow
    tuples strictly increasing (vertex indices at length 0), and the i-th
    at path_index i."""
    paths = qv.enumerate_paths(q, length)
    assert len(paths) == qv.path_count(q, length)
    for p in paths:
        steps = [q.arrows[a] for a in p.arrows]
        assert len(steps) == length
        assert all(s.target == t.source for s, t in zip(steps, steps[1:]))
        assert not steps or steps[0].source == p.start
    keys = [p.arrows if length else p.start for p in paths]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert [qv.path_index(q, p) for p in paths] == list(range(len(paths)))


@given(quiver_strategy, st.integers(min_value=0, max_value=3))
def test_star_in_random_quivers(q, length):
    opp = qv.opposite_quiver(q)
    for p in qv.enumerate_paths(q, length):
        back = qv.star_path(opp, qv.star_path(q, p))
        assert back == p
        assert opp.path_source(qv.star_path(q, p)) == q.path_target(p)


def test_star_indices_reverse_arrow_pairs():
    """On degree-2 paths the star permutation sends the path with arrows
    (i, j) to the opposite path with arrows (j, i), and applied twice it is
    the identity; checked on every fleet quiver."""
    for make in FLEET.values():
        q = make()
        opp = qv.opposite_quiver(q)
        paths, opp_paths = qv.enumerate_paths(q, 2), qv.enumerate_paths(opp, 2)
        star = qv.star_indices(q, 2)
        assert [opp_paths[s].arrows for s in star] == [p.arrows[::-1] for p in paths]
        back = qv.star_indices(opp, 2)
        assert [back[s] for s in star] == list(range(len(paths)))
