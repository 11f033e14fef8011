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
integers.  line_points and lpa_socle return the same report, which holds
each vertex's status and these blocks.

Two traversals serve every question.  A backward flood from marked
vertices, taken in sorted order, gives each vertex the least mark it
reaches: flooded from the branching vertices it names the first reason a
vertex is not a line point, and flooded from sinks it finds their
ancestors.  Kahn's peel orders a vertex set topologically and leaves over
the vertices on or past a cycle.  Peeling the vertices that reach no
branching vertex (each emits at most one edge) leaves exactly their
cycles; peeling the whole graph decides acyclicity and orders one dynamic
programme that counts, in exact integers, the paths ending at every
ancestor of the sinks asked for.  So the statuses and the counts cost
O(V + E) integer additions, and a chain of diamonds with 2^k paths is
counted, never listed.  Paths are enumerated only to materialise the
groupoid, after the counts have passed the size cap.

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
from .limits import MAX_BOUNDARY_PATH_EDGES, MAX_GROUPOID_ELEMENTS, SizeCapExceeded


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
    serialised boundary paths, must not collide with vertex names, and no
    id may contain the separators "." (between edges) or "|" (between the
    two paths of an arrow), or two paths could serialise alike.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    @cached_property
    def _adjacency(self) -> tuple[dict, dict]:
        """Each vertex's out-edges and in-edges in declaration order, built once."""
        outs: dict[str, list[tuple[str, str, str]]] = {v: [] for v in self.vertices}
        ins: dict[str, list[tuple[str, str, str]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            outs[e[1]].append(e)
            ins[e[2]].append(e)
        return (
            {v: tuple(es) for v, es in outs.items()},
            {v: tuple(es) for v, es in ins.items()},
        )

    def out_edges(self, v: str) -> tuple[tuple[str, str, str], ...]:
        return self._adjacency[0].get(v, ())

    def in_edges(self, v: str) -> tuple[tuple[str, str, str], ...]:
        return self._adjacency[1].get(v, ())

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    def successors(self, v: str) -> list[str]:
        return [e[2] for e in self.out_edges(v)]

    def predecessors(self, v: str) -> list[str]:
        return [e[1] for e in self.in_edges(v)]


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
    for name in (*vertices, *ids):
        if "." in name or "|" in name:
            raise ValueError(f"id {name!r} contains a path separator '.' or '|'")
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
class SocleBlock:
    class_representative: str  # the serialised boundary path at the sink
    size: object  # int or INFINITE


@dataclass(frozen=True)
class GraphSocleReport:
    """Each vertex's status and one matrix block per sink that ends a
    line point's boundary path, in vertex order."""

    line_points: tuple[str, ...]
    blocks: tuple[SocleBlock, ...]
    per_vertex: dict[str, VertexStatus]

    @property
    def socle_is_zero(self) -> bool:
        return not self.line_points

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


def _least_reached(g: DirectedGraph, marks) -> dict[str, str]:
    """For every vertex that reaches a mark, the least mark it reaches.

    Marks flood backwards in sorted order, and a flood stops at vertices an
    earlier one claimed: whatever reaches a claimed vertex reaches its
    lesser mark too.  So each vertex is claimed once, by its least mark.
    """
    least: dict[str, str] = {}
    for m in sorted(marks):
        if m in least:
            continue
        least[m] = m
        frontier = [m]
        while frontier:
            for u in g.predecessors(frontier.pop()):
                if u not in least:
                    least[u] = m
                    frontier.append(u)
    return least


def _peel(vertices, after) -> tuple[list[str], list[str]]:
    """Kahn's algorithm: an order in which every vertex precedes the ones
    `after` maps it to, and the vertices left over, which lie on or past a
    cycle.  `after` must map the vertices into themselves."""
    pending = dict.fromkeys(vertices, 0)  # edges into each vertex not yet peeled
    for v in pending:
        for w in after(v):
            pending[w] += 1
    order = [v for v, n in pending.items() if not n]
    for v in order:  # grows while it is walked
        for w in after(v):
            pending[w] -= 1
            if not pending[w]:
                order.append(w)
    return order, [v for v, n in pending.items() if n]


def line_points(g: DirectedGraph) -> GraphSocleReport:
    """Each vertex's status and the socle's blocks.  A vertex that reaches
    a branching vertex is named by the least one.  The others emit at most
    one edge each, so peeling them leaves exactly their cycles, and a
    vertex that reaches one is named by the least cycle vertex it reaches.
    The rest are line points; the peel puts each before its successor, so
    one backward pass sums their path lengths, which are refused over
    MAX_BOUNDARY_PATH_EDGES before any walk is built.

    Each block is keyed by its sink: its size is the orbit size of the
    class and its representative is the trivial path at the sink."""
    branching = _least_reached(g, (v for v in g.vertices if len(g.out_edges(v)) > 1))
    order, cycles = _peel([v for v in g.vertices if v not in branching], g.successors)
    cyclic = _least_reached(g, cycles)
    lengths: dict[str, int] = {}
    for v in reversed(order):
        if v not in cyclic:
            lengths[v] = sum(1 + lengths[w] for w in g.successors(v))
    total = sum(lengths.values())
    if total > MAX_BOUNDARY_PATH_EDGES:
        raise SizeCapExceeded(
            f"the boundary paths of the line points have {total} edges, "
            f"cap is {MAX_BOUNDARY_PATH_EDGES}"
        )
    walks = {v: _unique_walk(g, v) for v in g.vertices if v in lengths}
    counts = _path_counts(g, {w.sink for w in walks.values()})
    sizes = {w.sink: counts[w.sink] for w in walks.values()}  # orbit size by sink
    statuses = {}
    for v in g.vertices:
        if v in walks:
            walk = walks[v]
            statuses[v] = VertexStatus(v, True, walk.serialize(), None, sizes[walk.sink])
            continue
        if v in branching:
            reason = f"more than one edge leaves {branching[v]!r}"
        else:
            reason = f"the boundary path is eventually periodic (cycle through {cyclic[v]!r})"
        statuses[v] = VertexStatus(v, False, None, reason, None)
    blocks = tuple(SocleBlock(w, sizes[w]) for w in g.vertices if w in sizes)
    return GraphSocleReport(line_points=tuple(walks), blocks=blocks, per_vertex=statuses)


def orbit_size(g: DirectedGraph, v: str):
    """The number of finite paths ending at the sink of v's boundary path,
    the trivial path included; INFINITE when a cycle reaches that sink.
    ValueError, with the reason, unless v is a line point."""
    status = line_points(g).per_vertex.get(v)
    if status is None:
        raise ValueError(f"{v!r} is not a vertex of the graph")
    if not status.is_line_point:
        raise ValueError(f"{v!r} is not a line point: {status.failure_reason}")
    return status.orbit_size


def _path_counts(g: DirectedGraph, targets) -> dict[str, object]:
    """The number of finite paths ending at each target and at each of its
    ancestors, the trivial path included; INFINITE where a cycle reaches.

    Paths ending at w are the trivial one and a path ending at a source of
    an edge into w, extended by that edge.  Peeling the whole graph puts
    each vertex after its sources and leaves over exactly the vertices a
    cycle reaches, so one pass in peel order counts every ancestor.
    """
    ancestors = _least_reached(g, targets)
    order, fed = _peel(g.vertices, g.successors)
    counts: dict[str, object] = dict.fromkeys(fed, INFINITE)
    for w in order:
        if w in ancestors:
            counts[w] = 1 + sum(counts[u] for u in g.predecessors(w))
    return counts


def _paths_into(g: DirectedGraph, sink: str):
    """All finite paths ending at the given vertex, trivial path first,
    then breadth first along in-edges in declaration order.  Finite because
    the search is only used when no cycle reaches the vertex."""
    queue = deque([BoundaryPath(start=sink, edge_ids=(), sink=sink)])
    while queue:
        path = queue.popleft()
        yield path
        for eid, src, _ in g.in_edges(path.start):
            queue.append(BoundaryPath(start=src, edge_ids=(eid,) + path.edge_ids, sink=sink))


def lpa_socle(g: DirectedGraph) -> GraphSocleReport:
    """The socle of the path algebra: line_points(g), whose blocks are its
    matrix blocks."""
    return line_points(g)


# -- materialisation ----------------------------------------------------------


def _require_acyclic(g: DirectedGraph) -> None:
    if _peel(g.vertices, g.successors)[1]:
        raise GraphHasCycleError("the graph has a cycle; boundary paths are not all finite")


def boundary_paths(g: DirectedGraph) -> list[BoundaryPath]:
    """All finite paths ending at sinks, ordered by (sink, length, edges)."""
    _require_acyclic(g)
    edge_order = {e[0]: i for i, e in enumerate(g.edges)}
    paths = []
    for sink in filter(g.is_sink, g.vertices):
        paths.extend(
            sorted(
                _paths_into(g, sink),
                key=lambda p: (len(p.edge_ids), tuple(edge_order[e] for e in p.edge_ids)),
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
    sinks = list(filter(g.is_sink, g.vertices))
    counts = _path_counts(g, sinks)
    total = sum(counts[s] ** 2 for s in sinks)
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
    compose: list[list[str]] = []
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
                    compose.append([arrow(p, q), arrow(q, t), arrow(p, t)])
    return validate(elements, source, range_, inverse, compose)
