"""Qudit Kitaev models on oriented graphs embedded in closed surfaces.

The surface is described combinatorially: each face is a boundary walk of
(edge, side) entries, and every edge must occur exactly once on each side
across all faces.  Vertex operators act by X on entering arrows and X^-1
on leaving ones; face operators act by Z where the face lies on the right
of the arrow and Z^-1 where it lies on the left.

Shifts and twists modify only the vertex side: designated vertex
operators are removed and replaced by powers A^a together with powers
S^Z(t)^b of path operators, with d | a*b (equality for shifts).
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    BadSplit,
    BadSurface,
    Disconnected,
    InternalInvariant,
    NotADualPath,
    NotAPath,
    OddEuler,
    PathMismatch,
    json_int,
    json_object,
)
from .pauli import PauliElement, power
from .stabilizer import CharacterMap, StabilizerGroup, validate, validate_character


class DegenerateModelWarning(UserWarning):
    """Loops or same-face-both-sides edges give identity operator factors."""


LEFT = "L"
RIGHT = "R"
_SIDE_ALIASES = {"L": LEFT, "LEFT": LEFT, "R": RIGHT, "RIGHT": RIGHT}


def _freeze(x):
    """JSON arrays become tuples so ids stay hashable across round trips."""
    return tuple(_freeze(y) for y in x) if isinstance(x, list) else x


@dataclass(frozen=True)
class Edge:
    id: object
    tail: object
    head: object


PathStep = tuple[object, bool]  # (edge id, reverse?)


class SurfaceGraph:
    """Oriented graph with a face structure describing a closed surface."""

    def __init__(self, vertices: Sequence, edges: Sequence[Edge], faces: Sequence[Sequence[tuple]]):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.edge_index = {e.id: i for i, e in enumerate(self.edges)}
        if len(self.edge_index) != len(self.edges):
            raise BadSurface("duplicate edge ids")
        by_id = {e.id: e for e in self.edges}
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise BadSurface("duplicate vertex ids")
        for e in self.edges:
            if e.tail not in vset or e.head not in vset:
                raise BadSurface(f"edge {e.id} touches an unknown vertex")
        norm_faces = []
        seen: dict[tuple, int] = {}
        for fi, walk in enumerate(faces):
            norm = []
            for eid, side in walk:
                side = _SIDE_ALIASES.get(str(side).upper())
                if side is None:
                    raise BadSurface(f"unknown side marker in face {fi}")
                if eid not in by_id:
                    raise BadSurface(f"face {fi} uses unknown edge {eid}")
                key = (eid, side)
                if key in seen:
                    raise BadSurface(f"edge {eid} appears twice with side {side}")
                seen[key] = fi
                norm.append((eid, side))
            norm_faces.append(tuple(norm))
        self.faces = tuple(norm_faces)
        for e in self.edges:
            if (e.id, LEFT) not in seen or (e.id, RIGHT) not in seen:
                raise BadSurface(f"edge {e.id} does not have both sides covered")
        self._side_face = seen
        self._check_connected()
        if self.euler_characteristic % 2:
            raise OddEuler(f"Euler characteristic {self.euler_characteristic} is odd")
        if self.genus < 0:
            raise BadSurface("negative genus")
        for e in self.edges:
            if e.tail == e.head:
                warnings.warn(f"loop edge {e.id} contributes identity to its vertex operator",
                              DegenerateModelWarning, stacklevel=2)
            if self._side_face[(e.id, LEFT)] == self._side_face[(e.id, RIGHT)]:
                warnings.warn(f"edge {e.id} has the same face on both sides",
                              DegenerateModelWarning, stacklevel=2)

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SurfaceGraph":
        obj = json_object(obj, "graph")
        edges = [json_object(e, f"edges[{i}]") for i, e in enumerate(obj["edges"])]
        faces = [[json_object(step, f"faces[{f}][{k}]") for k, step in enumerate(walk)]
                 for f, walk in enumerate(obj["faces"])]
        return cls([_freeze(v) for v in obj["vertices"]],
                   [Edge(_freeze(e["id"]), _freeze(e["tail"]), _freeze(e["head"])) for e in edges],
                   [[(_freeze(step["edge"]), step["side"]) for step in walk] for walk in faces])

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in self.edges],
            "faces": [[{"edge": eid, "side": side} for eid, side in walk] for walk in self.faces],
        }

    def _check_connected(self):
        if not self.vertices:
            raise Disconnected("empty graph")
        adj: dict[object, list] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        seen = {self.vertices[0]}
        queue = deque([self.vertices[0]])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != len(self.vertices):
            raise Disconnected("graph is not connected")

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)

    @property
    def genus(self) -> int:
        return (2 - self.euler_characteristic) // 2

    def left_face(self, eid) -> int:
        return self._side_face[(eid, LEFT)]

    def right_face(self, eid) -> int:
        return self._side_face[(eid, RIGHT)]


@dataclass(frozen=True)
class ChargeConfiguration:
    """Electric charges per vertex and magnetic charges per face, mod d."""

    electric: dict
    magnetic: dict

    def to_json_dict(self) -> dict:
        return {
            "electric": [{"vertex": str(s), "charge": c} for s, c in self.electric.items()],
            "magnetic": [{"face": f, "charge": c} for f, c in self.magnetic.items()],
        }


class KitaevModel:
    """Vertex/face operators and the stabiliser they generate."""

    def __init__(self, graph: SurfaceGraph, d: int):
        if d < 2:
            raise ValueError(f"d = {d}: need d >= 2")
        self.graph = graph
        self.d = d
        n = len(graph.edges)
        self.n = n
        # entries are reduced where touched, so each operator is canonical as built
        zero = (0,) * n
        xs = {s: [0] * n for s in graph.vertices}
        for i, e in enumerate(graph.edges):  # +1 at the head, -1 at the tail: a loop nets 0
            xs[e.head][i] = (xs[e.head][i] + 1) % d
            xs[e.tail][i] = (xs[e.tail][i] - 1) % d
        self.vertex_ops: dict[object, PauliElement] = {
            s: PauliElement._reduced(d, n, 0, tuple(a), zero) for s, a in xs.items()
        }
        self.face_ops: dict[int, PauliElement] = {}
        for fi, walk in enumerate(graph.faces):
            b = [0] * n
            for eid, side in walk:
                i = graph.edge_index[eid]
                b[i] = (b[i] + (1 if side == RIGHT else -1)) % d
            self.face_ops[fi] = PauliElement._reduced(d, n, 0, zero, tuple(b))
        gens = [self.vertex_ops[s] for s in graph.vertices] + [
            self.face_ops[fi] for fi in range(len(graph.faces))
        ]
        # the vertex and face operators each multiply to the identity by SurfaceGraph's
        # checks: every edge runs between known vertices, and every (edge, side) occurs
        # once; a face set whose dual graph is disconnected still fails the rank check
        self.stabilizer: StabilizerGroup = validate(d, n, gens)
        expected_rank = len(graph.vertices) + len(graph.faces) - 2
        if self.stabilizer.tau_image.invariant_factors != (d,) * expected_rank:
            raise BadSurface("stabiliser is not free of rank #S + #F - 2")


def build_model(graph: SurfaceGraph, d: int) -> KitaevModel:
    return KitaevModel(graph, d)


def _normalize_steps(steps: Sequence, where: str = "path") -> list[PathStep]:
    """(edge id, reverse) pairs from {"edge", "reverse"} objects or pairs; where names the path in errors."""
    out = []
    for i, step in enumerate(steps):
        if isinstance(step, dict):
            step = json_object(step, f"{where}[{i}]")
            eid, rev = step["edge"], step.get("reverse", False)
        else:
            eid, rev = step
        if not isinstance(rev, bool):
            raise TypeError(f"{where}[{i}].reverse must be a boolean, got {rev!r}")
        out.append((_freeze(eid), rev))
    return out


def _walk(graph: SurfaceGraph, steps: Sequence[PathStep], dual: bool) -> tuple:
    """(start, end) of a path: vertices along edges, or faces across them (dual)."""
    error = NotADualPath if dual else NotAPath
    start = cur = None  # (None, None) for an empty path; ids may be None, so steps are counted
    for i, (eid, rev) in enumerate(steps):
        if eid not in graph.edge_index:
            raise error(f"unknown edge {eid}")
        if dual:
            fr, to = graph.right_face(eid), graph.left_face(eid)
        else:
            e = graph.edges[graph.edge_index[eid]]
            fr, to = e.tail, e.head
        if rev:
            fr, to = to, fr
        if i == 0:
            start = fr
        elif fr != cur:
            raise error(f"crossing {eid} does not start at face {cur}" if dual
                        else f"step on edge {eid} does not start at {cur}")
        cur = to
    return (start, cur)


def path_endpoints(graph: SurfaceGraph, steps: Sequence[PathStep]) -> tuple:
    """(start, end) vertices of an edge path; raises NotAPath on breaks."""
    return _walk(graph, steps, dual=False)


def dual_path_endpoints(graph: SurfaceGraph, steps: Sequence[PathStep]) -> tuple:
    """(start, end) faces of a dual path; forward crosses right -> left."""
    return _walk(graph, steps, dual=True)


def _transport(model: KitaevModel, steps: Sequence, dual: bool) -> PauliElement:
    """Exponent +1 per forward step and -1 per reversed one, on X (dual) or Z."""
    steps = _normalize_steps(steps)
    _walk(model.graph, steps, dual)
    v = [0] * model.n
    for eid, rev in steps:
        v[model.graph.edge_index[eid]] += -1 if rev else 1
    zero = (0,) * model.n
    return PauliElement(model.d, model.n, 0, tuple(v) if dual else zero, zero if dual else tuple(v))


def path_operator(model: KitaevModel, steps: Sequence) -> PauliElement:
    """Z-type transport operator: Z on agreeing edges, Z^-1 otherwise."""
    return _transport(model, steps, dual=False)


def dual_path_operator(model: KitaevModel, steps: Sequence) -> PauliElement:
    """X-type transport operator along a path in the dual graph.

    A forward step crosses its edge from the right face to the left face
    and applies X; a reversed step applies X^-1.
    """
    return _transport(model, steps, dual=True)


def charge_configuration(model: KitaevModel, chi: CharacterMap) -> ChargeConfiguration:
    """Read charges from a character of the model stabiliser.

    Character values follow the generator order (all A_s, then all B_f);
    total electric and total magnetic charge vanish mod d.
    """
    validate_character(model.stabilizer, chi)
    d = model.d
    ns = len(model.graph.vertices)
    electric = {s: chi.values[i] % d for i, s in enumerate(model.graph.vertices)}
    magnetic = {fi: chi.values[ns + fi] % d for fi in range(len(model.graph.faces))}
    if sum(electric.values()) % d or sum(magnetic.values()) % d:
        raise InternalInvariant("kitaev.charges", "charges do not sum to zero")
    return ChargeConfiguration(electric, magnetic)


def _sort_key(x):
    return (str(type(x)), str(x))


def _spanning_tree_paths(nodes, links):
    """BFS tree from the smallest node; links are (key, node_a, node_b).

    Returns (paths, tree_keys): paths[v] is the step list (key, reverse)
    from the root to v, where forward means a -> b.
    """
    adj: dict[object, list] = {v: [] for v in nodes}
    for key, a, b in links:
        adj[a].append((key, b, False))
        adj[b].append((key, a, True))
    for v in adj:
        adj[v].sort(key=lambda t: (_sort_key(t[0]), t[2]))
    root = min(nodes, key=_sort_key)
    paths = {root: []}
    tree_keys = set()
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for key, w, rev in adj[v]:
            if w not in paths:
                paths[w] = paths[v] + [(key, rev)]
                tree_keys.add(key)
                queue.append(w)
    return paths, tree_keys


def normalizer_generators(model: KitaevModel) -> list[PauliElement]:
    """Loop and dual-loop operators from deterministic cycle bases."""
    graph = model.graph
    out: list[PauliElement] = []
    links = [(e.id, e.tail, e.head) for e in graph.edges]
    paths, tree = _spanning_tree_paths(graph.vertices, links)
    for e in graph.edges:
        if e.id in tree:
            continue
        steps = paths[e.tail] + [(e.id, False)] + [(k, not r) for k, r in reversed(paths[e.head])]
        out.append(path_operator(model, steps))
    dual_links = [(e.id, graph.right_face(e.id), graph.left_face(e.id)) for e in graph.edges]
    dpaths, dtree = _spanning_tree_paths(range(len(graph.faces)), dual_links)
    for e in graph.edges:
        if e.id in dtree:
            continue
        fr, to = graph.right_face(e.id), graph.left_face(e.id)
        steps = dpaths[fr] + [(e.id, False)] + [(k, not r) for k, r in reversed(dpaths[to])]
        out.append(dual_path_operator(model, steps))
    return out


@dataclass(frozen=True)
class ShiftPair:
    vertex: object
    a: int
    b: int
    path: tuple[PathStep, ...]

    @classmethod
    def from_json_dict(cls, obj: Mapping, where: str) -> "ShiftPair":
        """where names the pair in errors."""
        obj = json_object(obj, where)
        return cls(_freeze(obj["vertex"]), json_int(obj["a"], f"{where}.a"), json_int(obj["b"], f"{where}.b"),
                   tuple(_normalize_steps(obj["path"], f"{where}.path")))


def shift_spec_from_json_dict(obj: Mapping) -> tuple[object, list[ShiftPair]]:
    """A shift or twist spec's (source, pairs), the arguments of apply_shift and apply_twist."""
    obj = json_object(obj, "shift spec")
    pairs = [ShiftPair.from_json_dict(p, f"pairs[{i}]") for i, p in enumerate(obj["pairs"])]
    return _freeze(obj["source"]), pairs


def _modified_group(
    model: KitaevModel, source, pairs: Sequence[ShiftPair], twisted: bool
) -> StabilizerGroup:
    d = model.d
    graph = model.graph
    removed = {source}
    new_gens: list[PauliElement] = []
    for pair in pairs:
        if pair.a < 1 or pair.b < 1 or (pair.a * pair.b) % d:
            raise BadSplit(f"need d | a*b, got a={pair.a} b={pair.b}")
        if not twisted and pair.a * pair.b != d:
            raise BadSplit(f"shift needs a*b = d, got a={pair.a} b={pair.b}")
        steps = _normalize_steps(pair.path)
        start, end = path_endpoints(graph, steps)
        if start != source or end != pair.vertex:
            raise PathMismatch(
                f"path runs {start} -> {end}, expected {source} -> {pair.vertex}"
            )
        removed.add(pair.vertex)
    for s in graph.vertices:
        if s not in removed:
            new_gens.append(model.vertex_ops[s])
    for pair in pairs:
        if pair.a % d:
            new_gens.append(power(model.vertex_ops[pair.vertex], pair.a))
        if pair.b % d:
            new_gens.append(power(path_operator(model, pair.path), pair.b))
    for fi in range(len(graph.faces)):
        new_gens.append(model.face_ops[fi])
    return validate(d, model.n, new_gens)


def apply_shift(model: KitaevModel, source, pairs: Sequence[ShiftPair]) -> StabilizerGroup:
    """Replace A at the designated vertices by A^a and S^Z(t)^b with a*b = d."""
    return _modified_group(model, source, pairs, twisted=False)


def apply_twist(model: KitaevModel, source, pairs: Sequence[ShiftPair]) -> StabilizerGroup:
    """Like apply_shift but only d | a*b: each pair multiplies the protected dimension
    by gcd(a, d) * gcd(b, d) / d, which is a*b/d only when a and b both divide d."""
    return _modified_group(model, source, pairs, twisted=True)


# deterministic example surfaces, used by tests and the CLI docs

def face_from_vertex_cycle(edges: Sequence[Edge], cycle: Sequence) -> list[tuple]:
    """(edge, side) walk of a face whose boundary visits the given vertices.

    The face is kept on the left of the walking direction: a forward
    traversal contributes (edge, L), a backward one (edge, R).  Parallel
    edges are disambiguated by first unused match.
    """
    used = set()
    walk = []
    m = len(cycle)
    for i in range(m):
        a, b = cycle[i], cycle[(i + 1) % m]
        match = None
        for e in edges:
            if e.id in used:
                continue
            if (e.tail, e.head) == (a, b):
                match = (e.id, LEFT)
                break
            if (e.tail, e.head) == (b, a):
                match = (e.id, RIGHT)
                break
        if match is None:
            raise BadSurface(f"no unused edge from {a} to {b}")
        used.add(match[0])
        walk.append(match)
    return walk


def tetrahedron_graph() -> SurfaceGraph:
    """Sphere: 4 vertices, 6 edges, 4 faces, genus 0."""
    vs = [0, 1, 2, 3]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = [Edge(f"e{a}{b}", a, b) for a, b in pairs]
    cycles = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    faces = [face_from_vertex_cycle(edges, c) for c in cycles]
    return SurfaceGraph(vs, edges, faces)


def torus_grid_graph(rows: int, cols: int) -> SurfaceGraph:
    """rows x cols square lattice with periodic boundary, genus 1."""
    vs = [(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            edges.append(Edge(("h", i, j), (i, j), (i, (j + 1) % cols)))
            edges.append(Edge(("v", i, j), (i, j), ((i + 1) % rows, j)))
    faces = []
    for i in range(rows):
        for j in range(cols):
            # plaquette between rows i, i+1 and columns j, j+1
            faces.append([
                (("h", i, j), RIGHT),
                (("v", i, (j + 1) % cols), RIGHT),
                (("h", (i + 1) % rows, j), LEFT),
                (("v", i, j), LEFT),
            ])
    return SurfaceGraph(vs, edges, faces)


def genus2_bouquet_graph() -> SurfaceGraph:
    """One vertex, four loop edges, one octagon face: genus 2.

    Degenerate as a model (all operators are the identity) but exercises
    the genus bookkeeping; the degeneracy warnings are silenced here.
    """
    vs = [0]
    edges = [Edge(k, 0, 0) for k in ("a", "b", "c", "d")]
    face = [("a", LEFT), ("b", LEFT), ("a", RIGHT), ("b", RIGHT),
            ("c", LEFT), ("d", LEFT), ("c", RIGHT), ("d", RIGHT)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateModelWarning)
        return SurfaceGraph(vs, edges, [face])
