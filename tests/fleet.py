"""The quiver fleet shared across the test suite, with host truncation degrees."""

from faceq import quiver as qv

from oracle import double_quiver


def one_loop():
    return qv.Quiver(["v"], [("t1", 0, 0)])


def two_loop():
    return qv.Quiver(["v"], [("t1", 0, 0), ("t2", 0, 0)])


def three_loop():
    return qv.Quiver(["v"], [("t1", 0, 0), ("t2", 0, 0), ("t3", 0, 0)])


def q_bullets():
    return qv.Quiver(["1", "2"], [])


def kronecker():
    return qv.Quiver(["1", "2"], [("a", 0, 1), ("b", 0, 1)])


def three_cycle():
    return qv.Quiver(["1", "2", "3"], [("p1", 0, 1), ("p2", 1, 2), ("p3", 2, 0)])


def doubled_three_cycle():
    return double_quiver(three_cycle())


def linear_three():
    """1 -> 2 -> 3, outside FLEET: vertex 1 has no incoming arrow and a path
    of length 2 leaves it, so e_1 (and x[e:1;e:1] in h(Q)) multiplies a
    degree-2 element from the left while every arrow kills it from the left."""
    return qv.Quiver(["1", "2", "3"], [("a", 0, 1), ("b", 1, 2)])


def arrow_into_loop():
    """1 -> 2 with a loop at 2, outside FLEET: as in linear_three, vertex 1
    has no incoming arrow, and paths of every length leave it."""
    return qv.Quiver(["1", "2"], [("a", 0, 1), ("t", 1, 1)])


# quivers on which (z g) x = z (g x) can fail for a z of degree 0 alone
DEGREE_ZERO_SOURCES = {"linear-three": linear_three, "arrow-into-loop": arrow_into_loop}


FLEET = {
    "one-loop": one_loop,
    "two-loop": two_loop,
    "three-loop": three_loop,
    "q-bullets": q_bullets,
    "kronecker": kronecker,
    "three-cycle": three_cycle,
    "doubled-three-cycle": doubled_three_cycle,
}

# Truncation degree per quiver for the zero-ideal builds in conftest.py,
# which caps it at 3 (min(3, HOST_DEGREE[name])), so the 4s are never used.
# A build's cost grows with the |Q_d|^2 face-basis elements of each degree
# and goes to quotient projection and the checks, not to echelon
# elimination; the path-heavy quivers stay at 3.
HOST_DEGREE = {
    "one-loop": 4,
    "two-loop": 4,
    "three-loop": 3,
    "q-bullets": 4,
    "kronecker": 4,
    "three-cycle": 4,
    "doubled-three-cycle": 3,
}
