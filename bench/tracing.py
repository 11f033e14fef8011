"""Outside-in tracing: wrap each layer's public entry points at run time.

Nothing in ``src/`` is changed.  ``Tracer.install`` replaces module
attributes and class attributes with timing wrappers, including the names
other modules re-imported (``cli.compute_socle``, ``graphs.validate``, ...)
and the cached action tables; ``uninstall`` puts the originals back.

Each call of a wrapped function is one span (name, start, end, parent)
appended to flat arrays that stay in memory until the run ends.  A span's
self time is its duration minus the time its child spans cover; every
per-layer ``_s`` metric is a sum of self times, so the layer times of an op
add up to the op's traced time.  Counters are bumped at the same boundaries.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        """Forget all spans and counters (the wrappers stay installed)."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._stack.clear()
        self.counters.clear()

    # -- spans ------------------------------------------------------------------

    def wrap(self, name: str, fn, after=None, on_error=None):
        """A wrapper recording one span per call of fn.

        after(counters, args, result) runs on return, on_error(counters, exc)
        when fn raises; both run outside the span.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(counters, exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.span_start)
        for i in range(len(self.span_start) - 1, -1, -1):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: 0.0 for name in self.names}
        for i, nid in enumerate(self.span_name):
            out[self.names[nid]] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    # -- patching -----------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None, on_error=None):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after, on_error))

    def patch_cached(self, owner, attr: str, name: str):
        original = owner.__dict__[attr]
        replacement = functools.cached_property(self.wrap(name, original.func))
        replacement.__set_name__(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self, sb):
        """Wrap every layer of the steinberg modules in the namespace sb."""
        cli, groupoid, algebra, linalg = sb.cli, sb.groupoid, sb.algebra, sb.linalg
        socle, oracle, graphs, builders = sb.socle, sb.oracle, sb.graphs, sb.builders

        self.patch(cli, "main", "cli")

        def validated(c, args, g):
            c["groupoid.validate_calls"] += 1
            c["groupoid.elements"] += len(g.elements)

        for owner in (groupoid, builders, graphs):
            self.patch(owner, "validate", "groupoid.validate", validated)
        self.patch(groupoid.FiniteGroupoid, "orbit_classes", "groupoid.orbit_classes")
        self.patch(groupoid.FiniteGroupoid, "isotropy", "groupoid.isotropy")

        alg = algebra.SteinbergAlgebra
        self.patch_cached(alg, "left_action_table", "algebra.action_tables")
        self.patch_cached(alg, "right_action_table", "algebra.action_tables")
        self.patch(alg, "left_action", "algebra.left_action", _count("algebra.left_action_calls"))
        self.patch(alg, "right_action", "algebra.right_action", _count("algebra.right_action_calls"))
        self.patch(algebra.AlgebraElement, "_convolve", "algebra.convolve", _count("algebra.convolve_calls"))

        def inserted(c, args, grew):
            c["linalg.insert_calls"] += 1
            c["linalg.insert_grew"] += bool(grew)

        self.patch(linalg.EchelonBasis, "insert", "linalg.insert", inserted)
        self.patch(linalg.EchelonBasis, "contains", "linalg.contains", _count("linalg.contains_calls"))

        def minimality(c, args, report):
            field = args[0].algebra.field
            if report.minimal and field.characteristic:
                c["socle.is_minimal_vectors"] += field.p ** report.dimension - 1

        socle_spans = {
            "check_condition_LP": ("socle.check_lp", None),
            "homogeneous_component": ("socle.homogeneous_component", _count("socle.homogeneous_component_calls")),
            "two_sided_ideal": ("socle.two_sided_ideal", _count("socle.two_sided_ideal_calls")),
            "left_ideal": ("socle.left_ideal", _count("socle.left_ideal_calls")),
            "minimal_ideal_generator": ("socle.minimal_ideal_generator", None),
            "is_minimal_left_ideal": ("socle.is_minimal", minimality),
            "socle": ("socle.assembly", None),
        }
        for attr, (name, after) in socle_spans.items():
            self.patch(socle, attr, name, after)
        for alias, attr in (("compute_socle", "socle"), ("left_ideal", "left_ideal"),
                            ("minimal_ideal_generator", "minimal_ideal_generator")):
            self.patch(cli, alias, *socle_spans[attr])
        self.patch(socle.LeftIdeal, "contains", "socle.leftideal_contains",
                   _count("socle.leftideal_contains_calls"))

        def lines(c, args, ideals):
            algebra_, p = args[0], args[0].field.p
            c["oracle.lines_enumerated"] += (p**algebra_.dim - 1) // (p - 1)
            c["oracle.minimal_ideals_found"] += len(ideals)

        def semiprime(c, args, report):
            algebra_, p = args[0], args[0].field.p
            if report.semiprime:
                c["oracle.semiprime_vectors"] += p**algebra_.dim - 1
            else:  # enumeration stops at the witness, in lexicographic order
                index = 0
                for coeff in report.witness.to_vector():
                    index = index * p + coeff
                c["oracle.semiprime_vectors"] += index

        def refused(c, exc):
            if isinstance(exc, sb.limits.SizeCapExceeded):
                c["oracle.refused"] += 1

        for owner in (oracle, cli):
            self.patch(owner, "oracle_minimal_ideals", "oracle.minimal_ideals", lines, refused)
            self.patch(owner, "oracle_socle", "oracle.socle")
            self.patch(owner, "oracle_is_semiprime", "oracle.semiprime", semiprime, refused)

        def graph_size(c, args, g):
            c["graphs.vertices"] += len(g.vertices)
            c["graphs.edges"] += len(g.edges)

        def paths(c, args, size):
            c["graphs.orbit_size_calls"] += 1
            if isinstance(size, int):
                c["graphs.paths_counted"] += size

        for attr, name, after in (
            ("from_json_obj", "graphs.from_json_obj", graph_size),
            ("line_points", "graphs.line_points", None),
            ("orbit_size", "graphs.orbit_size", paths),
            ("lpa_socle", "graphs.lpa_socle", None),
            ("boundary_paths", "graphs.boundary_paths", None),
            ("materialize_boundary_groupoid", "graphs.materialize", None),
        ):
            self.patch(graphs, attr, name, after)


def _count(key: str):
    def after(counters, args, result):
        counters[key] += 1

    return after
