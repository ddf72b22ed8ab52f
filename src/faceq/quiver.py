"""Finite quivers and their paths.

Paths are read left-to-right: in a path p1 p2 the target of p1 is the
source of p2.  Trivial paths e_i have length zero and carry their vertex.
Path enumeration is lexicographic in the arrow index sequence (and by
vertex index in length zero), which fixes every basis order downstream.
"""

from collections import namedtuple

from .errors import ParseError


class Arrow(namedtuple("Arrow", "name source target")):
    """An arrow: its name and the indices of its source and target vertices."""
    __slots__ = ()


class Path(namedtuple("Path", "start arrows")):
    """A path: start vertex plus the sequence of arrow indices."""
    __slots__ = ()

    @property
    def length(self):
        return len(self.arrows)


def _check_name(kind, name):
    """Reject names that would make path or face-monomial labels (e:v, a.b, x[a;b])
    ambiguous, or a bare label '+' read as the ' + ' between 'coeff * label' terms."""
    if (not isinstance(name, str) or name in ("", "+") or name.startswith("e:")
            or any(ch in ".;[]" or ch.isspace() for ch in name)):
        raise ParseError(f"bad {kind} name {name!r}: names must be nonempty and not '+', must "
                         "not start with 'e:' and must not contain whitespace or . ; [ ]")


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) for a in arrows)
        for v in self.vertices:
            _check_name("vertex", v)
        for a in self.arrows:
            _check_name("arrow", a.name)
        names = [a.name for a in self.arrows]
        for kind, seq in (("vertex label", self.vertices), ("arrow name", names)):
            if len(set(seq)) != len(seq):
                dup = next(x for i, x in enumerate(seq) if x in seq[:i])
                raise ParseError(f"duplicate {kind} {dup!r}")
        for a in self.arrows:
            if not (0 <= a.source < len(self.vertices) and 0 <= a.target < len(self.vertices)):
                raise ParseError(f"arrow {a.name} has an endpoint outside the vertex list")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        # outgoing arrow indices per vertex, ascending
        self.out_arrows = [[] for _ in self.vertices]
        for i, a in enumerate(self.arrows):
            self.out_arrows[a.source].append(i)

    def trivial_path(self, vertex):
        return Path(vertex, ())

    def arrow_path(self, arrow_idx):
        return Path(self.arrows[arrow_idx].source, (arrow_idx,))

    def path_source(self, p):
        return p.start

    def path_target(self, p):
        if not p.arrows:
            return p.start
        return self.arrows[p.arrows[-1]].target

    def path_label(self, p):
        """Text form: arrow names joined by '.', or 'e:<label>' when trivial."""
        if not p.arrows:
            return f"e:{self.vertices[p.start]}"
        return ".".join(self.arrows[i].name for i in p.arrows)

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


def parse_quiver(doc):
    """Build a Quiver from a parsed document (dict with vertices/arrows lists).

    Vertex and arrow order is preserved exactly as listed.  Dangling endpoint
    references raise ParseError naming the offender; Quiver checks the names.
    """
    if not isinstance(doc, dict):
        raise ParseError("quiver document must be an object")
    if "vertices" not in doc:
        raise ParseError("quiver document is missing 'vertices'")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError("'vertices' must be a list of strings")
    index = {v: i for i, v in enumerate(vertices)}
    entries = doc.get("arrows", [])
    if not isinstance(entries, list):
        raise ParseError("'arrows' must be a list of objects")
    arrows = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError("each arrow must be an object with name/source/target")
        try:
            name, source, target = entry["name"], entry["source"], entry["target"]
        except KeyError as missing:
            raise ParseError(f"arrow entry is missing key {missing}") from None
        for role, label in (("source", source), ("target", target)):
            if not isinstance(label, str) or label not in index:
                raise ParseError(f"arrow {name!r} references unknown {role} vertex {label!r}")
        arrows.append((name, index[source], index[target]))
    return Quiver(vertices, arrows)


def enumerate_paths(q, length):
    """All paths of the given length, lexicographic in the arrow sequence: arrow
    tuples grow one arrow at a time, by the ascending out_arrows of their target."""
    if length == 0:
        return [q.trivial_path(v) for v in range(len(q.vertices))]
    seqs = [(a,) for a in range(len(q.arrows))]
    for _ in range(length - 1):
        seqs = [s + (b,) for s in seqs for b in q.out_arrows[q.arrows[s[-1]].target]]
    return [Path(q.arrows[s[0]].source, s) for s in seqs]


def _paths_from(q, length):
    """ways[k][v], the number of paths of length k that start at v, for k = 0..length."""
    ways = [[1] * len(q.vertices)]
    for _ in range(length):
        ways.append([sum(ways[-1][q.arrows[b].target] for b in q.out_arrows[v])
                     for v in range(len(q.vertices))])
    return ways


def path_count(q, length):
    """Number of paths of a given length, counted without enumerating."""
    return sum(_paths_from(q, length)[-1])


def path_index(q, p):
    """Position of p in enumerate_paths(q, p.length), counted without enumerating."""
    if not p.arrows:
        return p.start
    ways = _paths_from(q, p.length - 1)
    index = 0
    for i, a in enumerate(p.arrows):
        earlier = range(a) if i == 0 else [b for b in q.out_arrows[q.arrows[a].source] if b < a]
        index += sum(ways[p.length - 1 - i][q.arrows[b].target] for b in earlier)
    return index


def compose_paths(q, a, b):
    """Concatenation ab when t(a) = s(b), else None."""
    if q.path_target(a) != q.path_source(b):
        return None
    return Path(a.start, a.arrows + b.arrows)


def opposite_quiver(q):
    """Same vertices; every arrow reversed and renamed with a '*' suffix."""
    return Quiver(q.vertices, [(a.name + "*", a.target, a.source) for a in q.arrows])


def star_path(q, p):
    """Reversal a* = p_l* ... p_1*, read as a path of opposite_quiver(q).

    Arrow indices are shared between q and its opposite, so only the
    sequence flips; the start of a* is the target of a.
    """
    return Path(q.path_target(p), tuple(reversed(p.arrows)))


def star_indices(q, length):
    """star[i] is the index of a* among the opposite quiver's paths of the
    given length, where a is the i-th path of q of that length."""
    index = {p: i for i, p in enumerate(enumerate_paths(opposite_quiver(q), length))}
    return [index[star_path(q, p)] for p in enumerate_paths(q, length)]
