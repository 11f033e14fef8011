import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import line_point_statuses, reachable_from, vertices_on_cycles
from steinberg.algebra import SteinbergAlgebra
from steinberg.fields import Rationals
from steinberg.graphs import (
    INFINITE,
    GraphHasCycleError,
    _path_counts,
    _paths_into,
    boundary_paths,
    from_json_obj,
    line_points,
    lpa_socle,
    make_graph,
    materialize_boundary_groupoid,
    orbit_size,
    to_json_obj,
)
from steinberg.limits import SizeCapExceeded
from steinberg.socle import socle


def line_graph(n):
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(1, n)]
    return make_graph(vertices, edges)


def loop_graph():
    return make_graph(["v"], [("e", "v", "v")])


def loop_with_exit():
    return make_graph(["c", "w"], [("l", "c", "c"), ("x", "c", "w")])


def test_single_vertex_is_a_line_point():
    g = make_graph(["v"], [])
    report = lpa_socle(g)
    assert report.line_points == ("v",)
    assert not report.socle_is_zero
    assert len(report.blocks) == 1
    assert report.blocks[0].class_representative == "v"
    assert report.blocks[0].size == 1


def test_loop_has_zero_socle():
    report = lpa_socle(loop_graph())
    assert report.line_points == ()
    assert report.socle_is_zero
    assert report.blocks == ()
    status = report.per_vertex["v"]
    assert not status.is_line_point
    assert "periodic" in status.failure_reason


def test_line_graph_gives_one_full_block():
    report = lpa_socle(line_graph(3))
    assert report.line_points == ("v1", "v2", "v3")
    assert len(report.blocks) == 1
    block = report.blocks[0]
    assert block.class_representative == "v3"
    assert block.size == 3
    assert report.per_vertex["v1"].boundary_path == "e1.e2"
    assert report.per_vertex["v3"].boundary_path == "v3"


def test_loop_with_exit_is_infinite():
    report = lpa_socle(loop_with_exit())
    assert report.line_points == ("w",)
    assert report.blocks[0].size is INFINITE
    assert report.per_vertex["c"].failure_reason == "more than one edge leaves 'c'"
    obj = report.to_json_obj()
    assert obj["blocks"][0]["size"] == "infinite"
    assert obj["vertices"]["w"]["orbit_size"] == "infinite"


def test_branching_is_not_a_line_point():
    g = make_graph(
        ["v", "s1", "s2"], [("a", "v", "s1"), ("b", "v", "s2")]
    )
    report = lpa_socle(g)
    assert report.line_points == ("s1", "s2")
    assert [b.class_representative for b in report.blocks] == ["s1", "s2"]
    # each class also contains the path from v, so both blocks are 2x2
    assert [b.size for b in report.blocks] == [2, 2]
    assert report.per_vertex["v"].failure_reason == "more than one edge leaves 'v'"
    gpd = materialize_boundary_groupoid(g)
    assert sorted(len(c) for c in gpd.orbit_classes()) == [2, 2]


def test_two_lines_into_one_sink():
    # v1 -> s <- v2: three boundary paths share the sink, one block of size 3
    g = make_graph(["v1", "v2", "s"], [("a", "v1", "s"), ("b", "v2", "s")])
    report = lpa_socle(g)
    assert [b.size for b in report.blocks] == [3]
    assert report.blocks[0].class_representative == "s"


def test_orbit_size_validates_line_points():
    g = loop_with_exit()
    assert orbit_size(g, "w") is INFINITE
    with pytest.raises(ValueError, match="more than one edge leaves 'c'"):
        orbit_size(g, "c")
    with pytest.raises(ValueError, match="not a vertex"):
        orbit_size(g, "nowhere")
    assert orbit_size(line_graph(4), "v2") == 4


def test_orbit_size_counts_exponentially_many_paths(time_limit, diamond_chain):
    g = make_graph(*diamond_chain(60))
    with time_limit(5):
        report = lpa_socle(g)
    assert [(b.class_representative, b.size) for b in report.blocks] == [("v60", 2**62 - 3)]


def test_long_line_graph_answers_promptly(time_limit):
    with time_limit(2):
        report = lpa_socle(line_graph(500))
    assert len(report.line_points) == 500
    assert [(b.class_representative, b.size) for b in report.blocks] == [("v500", 500)]


def test_boundary_path_edges_are_capped_before_any_walk(monkeypatch):
    # a line of n vertices has boundary paths of n (n - 1) / 2 edges in all
    monkeypatch.setattr("steinberg.graphs.MAX_BOUNDARY_PATH_EDGES", 45)
    assert len(line_points(line_graph(10)).line_points) == 10
    walked = []
    monkeypatch.setattr("steinberg.graphs._unique_walk", lambda g, v: walked.append(v))
    with pytest.raises(SizeCapExceeded, match="55 edges"):
        line_points(line_graph(11))
    assert walked == []


def test_path_counts_match_enumeration_on_random_graphs():
    rng = random.Random(41)
    for trial in range(60):
        n = rng.randint(1, 9)
        vertices = [f"v{i}" for i in range(n)]
        edges = []
        for j in range(rng.randint(0, 14)):
            a, b = rng.randrange(n), rng.randrange(n)
            if trial % 2:  # acyclic: edges only go up
                if a == b:
                    continue
                a, b = min(a, b), max(a, b)
            edges.append((f"e{j}", vertices[a], vertices[b]))
        g = make_graph(vertices, edges)
        cycles = vertices_on_cycles(g)
        for sink in filter(g.is_sink, vertices):
            if any(sink in reachable_from(g, c) for c in cycles):
                assert _path_counts(g, [sink])[sink] is INFINITE
            else:
                assert _path_counts(g, [sink])[sink] == sum(1 for _ in _paths_into(g, sink))


@st.composite
def small_graphs(draw):
    """Up to 10 vertices whose sorted order is not their declaration order,
    and up to 16 edges, loops and parallel edges included."""
    names = draw(st.permutations([f"{c}{i}" for i, c in enumerate("qzbkamxcwd")]))
    vertices = names[: draw(st.integers(1, 10))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=16))
    return make_graph(vertices, [(f"e{j}", a, b) for j, (a, b) in enumerate(pairs)])


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_line_points_match_per_vertex_reachability(g):
    report, expected = line_points(g), line_point_statuses(g)
    assert report.line_points == expected.line_points
    assert report.per_vertex == expected.per_vertex
    assert list(report.per_vertex) == list(g.vertices)
    assert report.blocks == expected.blocks
    for v, status in expected.per_vertex.items():
        if status.is_line_point:
            assert orbit_size(g, v) == status.orbit_size
        else:
            with pytest.raises(ValueError, match=re.escape(status.failure_reason)):
                orbit_size(g, v)


@st.composite
def small_acyclic_graphs(draw):
    """Up to 7 vertices whose sorted order is not their declaration order,
    and up to 6 edges, parallel ones included, each from an earlier to a
    later declared vertex: few enough boundary paths that every
    materialisation stays under the element cap."""
    names = draw(st.permutations([f"{c}{i}" for i, c in enumerate("qzbkamx")]))
    vertices = names[: draw(st.integers(1, 7))]
    edges = []
    if len(vertices) > 1:
        for j in range(draw(st.integers(0, 6))):
            a = draw(st.integers(0, len(vertices) - 2))
            b = draw(st.integers(a + 1, len(vertices) - 1))
            edges.append((f"e{j}", vertices[a], vertices[b]))
    return make_graph(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(small_acyclic_graphs())
def test_block_sizes_match_the_engine_on_the_materialisation(g):
    blocks = sorted(b.size for b in lpa_socle(g).blocks if b.size is not INFINITE)
    engine = socle(SteinbergAlgebra(materialize_boundary_groupoid(g), Rationals()))
    assert blocks == sorted(c.matrix_size for c in engine.components)


def test_star_answers_promptly(time_limit):
    leaves = [f"s{i}" for i in range(10_000)]
    g = make_graph(["hub"] + leaves, [(f"e{i}", "hub", s) for i, s in enumerate(leaves)])
    with time_limit(3):
        report = lpa_socle(g)
    assert report.line_points == tuple(leaves)
    assert [b.size for b in report.blocks] == [2] * len(leaves)
    assert report.per_vertex["hub"].failure_reason == "more than one edge leaves 'hub'"


def test_cycle_with_a_tail_answers_promptly(time_limit):
    n = 50_000
    vertices = [f"c{i}" for i in range(n)] + [f"t{i}" for i in range(100)]
    edges = [(f"e{i}", f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
    edges += [(f"f{i}", f"t{i}", f"t{i + 1}") for i in range(99)] + [("f99", "t99", "c7")]
    with time_limit(3):
        report = lpa_socle(make_graph(vertices, edges))
    assert report.socle_is_zero
    reasons = {st.failure_reason for st in report.per_vertex.values()}
    assert reasons == {"the boundary path is eventually periodic (cycle through 'c0')"}


def test_chain_into_a_branch_answers_promptly(time_limit):
    n = 20_000
    vertices = [f"v{i}" for i in range(n)] + ["a", "b"]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    edges += [("ea", f"v{n - 1}", "a"), ("eb", f"v{n - 1}", "b")]
    with time_limit(3):
        report = lpa_socle(make_graph(vertices, edges))
    assert report.line_points == ("a", "b")
    assert [(b.class_representative, b.size) for b in report.blocks] == [("a", n + 1), ("b", n + 1)]
    assert report.per_vertex["v0"].failure_reason == f"more than one edge leaves 'v{n - 1}'"


def test_comb_answers_promptly(time_limit):
    # every tooth ends at its own sink, and each sink's ancestors are the
    # whole spine before it
    n = 10_000
    vertices = [f"v{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    edges = [(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    edges += [(f"f{i}", f"v{i}", f"s{i}") for i in range(n)]
    with time_limit(3):
        report = lpa_socle(make_graph(vertices, edges))
    assert report.line_points == (f"v{n - 1}",) + tuple(f"s{i}" for i in range(n))
    assert [b.size for b in report.blocks] == list(range(2, n + 2))


def test_boundary_paths_order_and_serialization():
    paths = boundary_paths(line_graph(3))
    assert [p.serialize() for p in paths] == ["v3", "e2", "e1.e2"]
    assert [p.start for p in paths] == ["v3", "v2", "v1"]
    assert all(p.sink == "v3" for p in paths)


def test_boundary_paths_reject_cycles():
    with pytest.raises(GraphHasCycleError):
        boundary_paths(loop_graph())
    with pytest.raises(GraphHasCycleError):
        boundary_paths(loop_with_exit())


def test_materialized_line_graph_is_a_pair_groupoid():
    g = line_graph(3)
    gpd = materialize_boundary_groupoid(g)
    units = gpd.units()
    assert set(units) == {"v3", "e2", "e1.e2"}
    assert len(gpd) == 9
    assert all(gpd.isotropy(u).is_trivial for u in units)
    assert len(gpd.orbit_classes()) == 1
    report = socle(SteinbergAlgebra(gpd, Rationals()))
    assert [c.matrix_size for c in report.components] == [3]


def test_materialized_forest_splits_by_sink():
    g = make_graph(
        ["v1", "s1", "v2", "s2"],
        [("a", "v1", "s1"), ("b", "v2", "s2")],
    )
    gpd = materialize_boundary_groupoid(g)
    classes = gpd.orbit_classes()
    assert sorted(len(c) for c in classes) == [2, 2]
    report = socle(SteinbergAlgebra(gpd, Rationals()))
    assert sorted(c.matrix_size for c in report.components) == [2, 2]


def test_materialize_rejects_cycles():
    with pytest.raises(GraphHasCycleError):
        materialize_boundary_groupoid(loop_graph())
    # the cycle is reported even when the paths would also exceed the cap
    vertices = [f"v{i}" for i in range(23)] + ["s", "c"]
    edges = [(f"e{i}", f"v{i}", "s") for i in range(23)] + [("loop", "c", "c")]
    with pytest.raises(GraphHasCycleError):
        materialize_boundary_groupoid(make_graph(vertices, edges))


def test_materialize_respects_size_cap():
    # 24 boundary paths into one sink would need a 576-element pair groupoid
    vertices = [f"v{i}" for i in range(23)] + ["s"]
    edges = [(f"e{i}", f"v{i}", "s") for i in range(23)]
    with pytest.raises(SizeCapExceeded):
        materialize_boundary_groupoid(make_graph(vertices, edges))


def test_graph_json_round_trip():
    g = loop_with_exit()
    obj = to_json_obj(g)
    text = json.dumps(obj, sort_keys=True)
    g2 = from_json_obj(json.loads(text))
    assert to_json_obj(g2) == obj
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges


def test_make_graph_validation():
    with pytest.raises(ValueError):
        make_graph([], [])
    with pytest.raises(ValueError):
        make_graph(["v", "v"], [])
    with pytest.raises(ValueError):
        make_graph(["v"], [("e", "v", "w")])  # unknown endpoint
    with pytest.raises(ValueError):
        make_graph(["v", "w"], [("e", "v", "w"), ("e", "w", "v")])  # dup edge id
    with pytest.raises(ValueError):
        make_graph(["v", "w"], [("v", "v", "w")])  # edge id shadows a vertex


def test_make_graph_rejects_path_separators_in_ids():
    # the edge "a.b" and the path a.b would serialise alike
    with pytest.raises(ValueError, match="'a.b'"):
        make_graph(["x", "y", "z", "s"], [("a.b", "x", "s"), ("a", "y", "z"), ("b", "z", "s")])
    with pytest.raises(ValueError, match="'v\\|w'"):
        make_graph(["v|w", "u"], [("e", "u", "v|w")])


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        from_json_obj({"vertices": ["v"]})
    with pytest.raises(ValueError):
        from_json_obj({"vertices": ["v"], "edges": [["e", "v"]]})


def test_infinite_sentinel():
    assert repr(INFINITE) == "INFINITE"
    assert INFINITE is not None
    assert not isinstance(INFINITE, int)


def test_line_points_on_mixed_graph():
    # line segment plus a separate loop: only the segment contributes
    g = make_graph(
        ["a", "b", "c"],
        [("e1", "a", "b"), ("loop", "c", "c")],
    )
    report = line_points(g)
    assert report.line_points == ("a", "b")
    assert not report.per_vertex["c"].is_line_point
