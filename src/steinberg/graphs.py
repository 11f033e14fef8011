"""Directed-graph frontend: line points and the socle of a path algebra.

For a finite directed graph the socle of its path algebra is governed by
line points: vertices from which the future is a single aperiodic line.
Concretely, v is a line point iff every vertex reachable from v emits at
most one edge and v reaches no cycle; its boundary path is then the unique
finite path from v to a sink.

Two boundary paths are equivalent iff they end at the same sink, so each
sink terminating some line point contributes one matrix block whose size is
the number of finite paths into that sink (counting the trivial path), or
INFINITE when a cycle feeds the sink.  No line points means zero socle; a
vertex on a cycle contributes nothing because its isotropy is a copy of the
integers.

Paths into a sink are counted, not listed: a dynamic programme over the
sink's ancestors in reverse topological order sums exact integers, so a
chain of diamonds with 2^k paths costs O(V + E).  Paths are enumerated only
to materialise the groupoid, after the counts have passed the size cap.

For acyclic graphs the boundary-path groupoid is materialised explicitly:
units are the finite paths ending at sinks and two of them are connected by
exactly one arrow iff they share their sink, a disjoint union of pair
groupoids that the groupoid validator then certifies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .groupoid import FiniteGroupoid, validate
from .limits import MAX_GROUPOID_ELEMENTS, SizeCapExceeded


class _Infinite:
    __slots__ = ()

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


class GraphHasCycleError(ValueError):
    """Materialisation needs an acyclic graph."""


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed graph; edges are (id, source vertex, range vertex).

    Parallel edges and loops are allowed.  Edge ids, being path segments in
    serialised boundary paths, must not collide with vertex names.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    @cached_property
    def _out_edges(self) -> dict[str, tuple[tuple[str, str, str], ...]]:
        """Each vertex's out-edges in declaration order, built once."""
        lists: dict[str, list[tuple[str, str, str]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            lists[e[1]].append(e)
        return {v: tuple(es) for v, es in lists.items()}

    def out_edges(self, v: str) -> tuple[tuple[str, str, str], ...]:
        return self._out_edges.get(v, ())

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    def successors(self, v: str) -> list[str]:
        return [e[2] for e in self.out_edges(v)]

    def reachable_from(self, v: str) -> set[str]:
        seen = {v}
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for t in self.successors(w):
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return seen

    def vertices_on_cycles(self) -> set[str]:
        out = set()
        for v in self.vertices:
            if any(v in self.reachable_from(t) for t in self.successors(v)):
                out.add(v)
        return out


def make_graph(vertices: list[str], edges: list[tuple[str, str, str]]) -> DirectedGraph:
    if not vertices:
        raise ValueError("the vertex list is empty")
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertex names")
    ids = [e[0] for e in edges]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate edge ids")
    clash = set(ids) & set(vertices)
    if clash:
        raise ValueError(f"edge ids clash with vertex names: {sorted(clash)}")
    vertex_set = set(vertices)
    for eid, src, rng in edges:
        if src not in vertex_set or rng not in vertex_set:
            raise ValueError(f"edge {eid!r} has undeclared endpoints ({src!r} -> {rng!r})")
    return DirectedGraph(vertices=tuple(vertices), edges=tuple(tuple(e) for e in edges))


def from_json_obj(obj) -> DirectedGraph:
    if not isinstance(obj, dict):
        raise ValueError("graph document must be a JSON object")
    missing = {"vertices", "edges"} - obj.keys()
    if missing:
        raise ValueError(f"graph document is missing keys: {sorted(missing)}")
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("'vertices' must be a list of strings")
    rows = obj["edges"]
    if not isinstance(rows, list):
        raise ValueError("'edges' must be a list of [id, source, range] triples")
    edges = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise ValueError(f"bad edge row: {row!r}")
        edges.append((row[0], row[1], row[2]))
    return make_graph(vertices, edges)


def to_json_obj(g: DirectedGraph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


# -- boundary paths -----------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPath:
    """A finite path ending at a sink; the unit of the boundary groupoid."""

    start: str
    edge_ids: tuple[str, ...]
    sink: str

    def serialize(self) -> str:
        # Trivial paths serialise as their vertex, others as dotted edge ids.
        return ".".join(self.edge_ids) if self.edge_ids else self.sink


def _unique_walk(g: DirectedGraph, v: str) -> BoundaryPath:
    edge_ids = []
    current = v
    while True:
        outs = g.out_edges(current)
        if not outs:
            return BoundaryPath(start=v, edge_ids=tuple(edge_ids), sink=current)
        eid, _, target = outs[0]
        edge_ids.append(eid)
        current = target


@dataclass(frozen=True)
class VertexStatus:
    vertex: str
    is_line_point: bool
    boundary_path: str | None
    failure_reason: str | None
    orbit_size: object | None  # int or INFINITE for line points


@dataclass(frozen=True)
class LinePointReport:
    line_points: tuple[str, ...]
    per_vertex: dict[str, VertexStatus]
    sink_sizes: dict[str, object]  # orbit size by the sink of a line point


def line_points(g: DirectedGraph) -> LinePointReport:
    cycle_vertices = g.vertices_on_cycles()
    statuses = {}
    points = []
    sizes = {}  # orbit size by sink, counted once per sink
    for v in g.vertices:
        reachable = g.reachable_from(v)
        branching = sorted(w for w in reachable if len(g.out_edges(w)) > 1)
        if branching:
            statuses[v] = VertexStatus(
                vertex=v,
                is_line_point=False,
                boundary_path=None,
                failure_reason=f"more than one edge leaves {branching[0]!r}",
                orbit_size=None,
            )
            continue
        cyclic = sorted(reachable & cycle_vertices)
        if cyclic:
            statuses[v] = VertexStatus(
                vertex=v,
                is_line_point=False,
                boundary_path=None,
                failure_reason=f"the boundary path is eventually periodic (cycle through {cyclic[0]!r})",
                orbit_size=None,
            )
            continue
        walk = _unique_walk(g, v)
        if walk.sink not in sizes:
            sizes[walk.sink] = orbit_size(g, v)
        points.append(v)
        statuses[v] = VertexStatus(
            vertex=v,
            is_line_point=True,
            boundary_path=walk.serialize(),
            failure_reason=None,
            orbit_size=sizes[walk.sink],
        )
    return LinePointReport(line_points=tuple(points), per_vertex=statuses, sink_sizes=sizes)


def orbit_size(g: DirectedGraph, v: str):
    """The number of finite paths ending at the sink of v's boundary path,
    the trivial path included; INFINITE when a cycle reaches that sink.

    While no vertex on the walk from v emits two edges, the walk is all that
    v reaches, so v reaches a cycle exactly when the walk revisits a vertex.
    """
    walked = set()
    w = v
    while outs := g.out_edges(w):
        if len(outs) > 1:
            raise ValueError(f"{v!r} is not a line point (branching future)")
        walked.add(w)
        w = outs[0][2]
        if w in walked:
            raise ValueError(f"{v!r} is not a line point (reaches a cycle)")
    return _count_paths_into(g, w)


def _count_paths_into(g: DirectedGraph, sink: str):
    """The number of finite paths ending at the sink, the trivial path
    included, or INFINITE when a cycle reaches the sink.

    paths[v] counts the paths from v to the sink.  It is final once every
    edge from v into the sink's ancestors has added its target's count, so
    the ancestors are visited in reverse topological order (Kahn's
    algorithm on the reversed edges).  A cycle among the ancestors leaves
    its vertices unvisited.
    """
    sources_into: dict[str, list[str]] = {v: [] for v in g.vertices}
    for _, src, rng in g.edges:
        sources_into[rng].append(src)
    ancestors = {sink}
    frontier = [sink]
    while frontier:
        for src in sources_into[frontier.pop()]:
            if src not in ancestors:
                ancestors.add(src)
                frontier.append(src)
    pending = dict.fromkeys(ancestors, 0)  # edges into ancestors not yet added
    for _, src, rng in g.edges:
        if rng in ancestors:
            pending[src] += 1
    paths = dict.fromkeys(ancestors, 0)
    paths[sink] = 1
    ready = [sink]
    visited = 0
    while ready:
        w = ready.pop()
        visited += 1
        for src in sources_into[w]:
            paths[src] += paths[w]
            pending[src] -= 1
            if not pending[src]:
                ready.append(src)
    if visited < len(ancestors):
        return INFINITE
    return sum(paths.values())


def _paths_into(g: DirectedGraph, sink: str):
    """All finite paths ending at the given vertex, trivial path first,
    then by length and edge declaration order.  Finite because the search
    is only used when no cycle reaches the vertex."""
    queue = deque([BoundaryPath(start=sink, edge_ids=(), sink=sink)])
    while queue:
        path = queue.popleft()
        yield path
        for eid, src, rng in g.edges:
            if rng == path.start:
                queue.append(
                    BoundaryPath(start=src, edge_ids=(eid,) + path.edge_ids, sink=sink)
                )


# -- socle report -------------------------------------------------------------


@dataclass(frozen=True)
class SocleBlock:
    class_representative: str  # the serialised boundary path at the sink
    size: object  # int or INFINITE


@dataclass(frozen=True)
class GraphSocleReport:
    line_points: tuple[str, ...]
    blocks: tuple[SocleBlock, ...]
    socle_is_zero: bool
    per_vertex: dict[str, VertexStatus]

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "line_points": list(self.line_points),
            "vertices": {
                v: (
                    {
                        "line_point": True,
                        "boundary_path": st.boundary_path,
                        "orbit_size": "infinite" if st.orbit_size is INFINITE else st.orbit_size,
                    }
                    if st.is_line_point
                    else {"line_point": False, "reason": st.failure_reason}
                )
                for v, st in self.per_vertex.items()
            },
            "blocks": [
                {
                    "class_representative": b.class_representative,
                    "size": "infinite" if b.size is INFINITE else b.size,
                }
                for b in self.blocks
            ],
            "socle_is_zero": self.socle_is_zero,
        }


def lpa_socle(g: DirectedGraph) -> GraphSocleReport:
    """One matrix block per equivalence class of line-point boundary paths.

    Classes are keyed by the terminal sink; the block size is the orbit size
    of the class and the class representative is the trivial path at the
    sink.  No line points means the socle is zero.
    """
    report = line_points(g)
    blocks = tuple(
        SocleBlock(class_representative=w, size=report.sink_sizes[w])
        for w in sorted(report.sink_sizes, key=g.vertices.index)
    )
    return GraphSocleReport(
        line_points=report.line_points,
        blocks=blocks,
        socle_is_zero=not report.line_points,
        per_vertex=report.per_vertex,
    )


# -- materialisation ----------------------------------------------------------


def _require_acyclic(g: DirectedGraph) -> None:
    if g.vertices_on_cycles():
        raise GraphHasCycleError("the graph has a cycle; boundary paths are not all finite")


def boundary_paths(g: DirectedGraph) -> list[BoundaryPath]:
    """All finite paths ending at sinks, ordered by (sink, length, edges)."""
    _require_acyclic(g)
    edge_order = {e[0]: i for i, e in enumerate(g.edges)}
    paths = []
    for sink in g.vertices:
        if g.is_sink(sink):
            paths.extend(_paths_into(g, sink))
    paths.sort(
        key=lambda p: (
            g.vertices.index(p.sink),
            len(p.edge_ids),
            tuple(edge_order[e] for e in p.edge_ids),
        )
    )
    return paths


def materialize_boundary_groupoid(g: DirectedGraph) -> FiniteGroupoid:
    """The boundary-path groupoid of an acyclic graph, as composition tables.

    Units are boundary paths; each pair of paths into a common sink carries
    one arrow p|q (range p, source q), so every component is the pair
    groupoid of its sink's paths.  The result passes the full validator.
    """
    _require_acyclic(g)
    total = sum(_count_paths_into(g, v) ** 2 for v in g.vertices if g.is_sink(v))
    if total > MAX_GROUPOID_ELEMENTS:
        raise SizeCapExceeded(
            f"materialised groupoid would have {total} elements, cap is {MAX_GROUPOID_ELEMENTS}"
        )
    paths = boundary_paths(g)
    by_sink: dict[str, list[BoundaryPath]] = {}
    for p in paths:
        by_sink.setdefault(p.sink, []).append(p)

    def arrow(p: BoundaryPath, q: BoundaryPath) -> str:
        if p == q:
            return p.serialize()
        return f"{p.serialize()}|{q.serialize()}"

    elements = [p.serialize() for p in paths]
    source = {p.serialize(): p.serialize() for p in paths}
    range_ = {p.serialize(): p.serialize() for p in paths}
    inverse = {p.serialize(): p.serialize() for p in paths}
    compose: dict[tuple[str, str], str] = {}
    for ps in by_sink.values():
        for p in ps:
            for q in ps:
                if p != q:
                    elements.append(arrow(p, q))
                    source[arrow(p, q)] = q.serialize()
                    range_[arrow(p, q)] = p.serialize()
                    inverse[arrow(p, q)] = arrow(q, p)
        for p in ps:
            for q in ps:
                for t in ps:
                    compose[(arrow(p, q), arrow(q, t))] = arrow(p, t)
    return validate(elements, source, range_, inverse, compose)
