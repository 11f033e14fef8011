"""Expected outputs derived from closed forms, independent of the engine.

Everything here reads the generated JSON documents directly and never calls
into ``steinberg``: orbits and isotropy orders come from a union-find over
the source and range maps, path counts from a dynamic program over a
topological order.  The statements used are the ones the paper proves:

* a finite groupoid algebra is the direct sum over orbits of M_k(K[H]);
  under (LP) (all isotropy trivial) it is semisimple over every field, the
  socle is the whole algebra and each orbit with k units is one k x k block;
* the certificate at a unit x generates a left ideal of dimension |orbit(x)|;
* K[H] is semisimple iff char K does not divide |H| (Maschke), otherwise
  the isotropy sum is an absolute zero divisor, so the algebra is semiprime
  exactly when the characteristic divides no isotropy order;
* M_k(GF(p)) has (p^k - 1)/(p - 1) minimal left ideals, each of dimension k;
* a Leavitt path algebra block at a sink has one row per finite path into
  the sink, infinitely many when a cycle feeds it.
"""

from __future__ import annotations

from collections import deque

ENUM_CAP = 1 << 20


class Mismatch(Exception):
    """An op's exit code or output differs from what the closed form says."""


def expect(condition: bool, message: str):
    if not condition:
        raise Mismatch(message)


def one(designator: str) -> str:
    return "1/1" if designator == "q" else f"1 mod {designator[1:]}"


def characteristic(designator: str) -> int:
    return 0 if designator == "q" else int(designator[1:])


class Shape:
    """Units, orbits and isotropy orders of a groupoid document."""

    def __init__(self, obj: dict):
        self.elements = list(obj["elements"])
        src, rng = obj["source"], obj["range"]
        self.src, self.rng = src, rng
        self.units = [g for g in self.elements if rng[g] == g]
        parent = {u: u for u in self.units}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for g in self.elements:
            a, b = find(src[g]), find(rng[g])
            if a != b:
                parent[a] = b
        orbits: dict[str, list[str]] = {}
        for u in self.units:
            orbits.setdefault(find(u), []).append(u)
        self.orbits = list(orbits.values())  # ordered by first unit
        self.orbit_of = {u: orbit for orbit in self.orbits for u in orbit}
        self.isotropy = {u: [] for u in self.units}
        for g in self.elements:
            if src[g] == rng[g]:
                self.isotropy[src[g]].append(g)

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def lp(self) -> bool:
        return all(len(members) == 1 for members in self.isotropy.values())

    def identity_basis(self, designator: str) -> list:
        return [[[one(designator), g]] for g in self.elements]


def validate_doc(shape: Shape) -> dict:
    return {
        "schema": 1,
        "valid": True,
        "violations": [],
        "elements": shape.n,
        "units": shape.units,
    }


def socle_doc(shape: Shape, designator: str) -> dict:
    return {
        "schema": 1,
        "lp_holds": True,
        "field": designator,
        "generating_units": [orbit[0] for orbit in shape.orbits],
        "components": [
            {
                "representative": orbit[0],
                "orbit": orbit,
                "dimension": len(orbit) ** 2,
                "matrix_size": len(orbit),
            }
            for orbit in shape.orbits
        ],
        "socle_dimension": shape.n,
        "basis": shape.identity_basis(designator),
    }


def check_socle(shape: Shape, designator: str, code: int, doc) -> None:
    if shape.lp:
        expect(code == 0, f"socle exited {code}, expected 0")
        expect(doc == socle_doc(shape, designator), "socle document differs from the closed form")
        return
    expect(code == 2, f"socle exited {code}, expected the (LP) refusal 2")
    violators = [u for u in shape.units if len(shape.isotropy[u]) > 1]
    expect(doc["lp_holds"] is False, "refusal document claims (LP) holds")
    expect(doc["violators"] == violators, "refusal lists the wrong violators")


def check_minimal(shape: Shape, unit: str, designator: str, code: int, doc) -> None:
    expect(code == 0, f"minimal exited {code}, expected 0")
    order = len(shape.isotropy[unit])
    p = characteristic(designator)
    if p == 0:
        flavour, coeff = "division_idempotent", f"1/{order}"
    elif order % p:
        flavour, coeff = "division_idempotent", f"{pow(order, -1, p)} mod {p}"
    else:
        flavour, coeff = "absolute_zero_divisor", f"1 mod {p}"
    expect(doc["unit"] == unit and doc["field"] == designator, "certificate names the wrong unit or field")
    expect(doc["isotropy_order"] == order, "wrong isotropy order")
    expect(doc["flavour"] == flavour, f"flavour {doc['flavour']}, expected {flavour}")
    expect(doc["generator"] == [[coeff, g] for g in shape.isotropy[unit]], "wrong certificate generator")
    dim = len(shape.orbit_of[unit])
    expect(doc["ideal_dimension"] == dim, f"ideal dimension {doc['ideal_dimension']}, expected the orbit size {dim}")
    expect(len(doc["ideal_basis"]) == dim, "ideal basis has the wrong length")


def check_oracle(shape: Shape, designator: str, code: int, doc) -> None:
    expect(code == 0, f"oracle exited {code}, expected 0")
    p = characteristic(designator)
    semiprime = all(len(m) % p for m in shape.isotropy.values())
    expect(doc["field"] == designator, "wrong field")
    expect(doc["semiprime"] is semiprime, f"semiprime should be {semiprime}")
    expect((doc["semiprime_witness"] is None) == semiprime, "witness present iff not semiprime")
    if semiprime:
        expect(doc["socle_dimension"] == shape.n, "a semisimple algebra is its own socle")
        expect(doc["basis"] == shape.identity_basis(designator), "oracle socle differs from the engine socle")
    if shape.lp:
        dims = sorted(
            len(orbit)
            for orbit in shape.orbits
            for _ in range((p ** len(orbit) - 1) // (p - 1))
        )
        found = sorted(ideal["dimension"] for ideal in doc["minimal_ideals"])
        expect(found == dims, "minimal ideals differ from the matrix-block count")


def check_refused(code: int, out: str, expected_code: int) -> None:
    expect(code == expected_code, f"exited {code}, expected the refusal {expected_code}")
    expect(out == "", "a refusal must print nothing on stdout")


# -- graphs -------------------------------------------------------------------


class GraphShape:
    """Line points and block sizes of a graph document."""

    def __init__(self, obj: dict):
        self.vertices = list(obj["vertices"])
        self.succ = {v: [] for v in self.vertices}
        self.pred = {v: [] for v in self.vertices}
        self.first_edge = {}
        for eid, src, rng in obj["edges"]:
            self.succ[src].append(rng)
            self.pred[rng].append(src)
            self.first_edge.setdefault(src, (eid, rng))
        reach = {v: self._closure(v, self.succ) for v in self.vertices}
        on_cycle = {v for v in self.vertices if any(v in reach[w] for w in self.succ[v])}
        self.line_points = [
            v
            for v in self.vertices
            if all(len(self.succ[w]) <= 1 and w not in on_cycle for w in reach[v])
        ]
        self.walk = {v: self._walk(v) for v in self.line_points}
        sinks = {sink for _, sink in self.walk.values()}
        self.block_size = {
            sink: ("infinite" if self._closure(sink, self.pred) & on_cycle else self._paths_into(sink))
            for sink in sinks
        }
        self.blocks = [v for v in self.vertices if v in sinks]

    @staticmethod
    def _closure(v, adjacency) -> set:
        seen, todo = {v}, [v]
        while todo:
            for w in adjacency[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    def _walk(self, v):
        edges = []
        while v in self.first_edge:
            eid, v = self.first_edge[v]
            edges.append(eid)
        return (".".join(edges) if edges else v), v

    def _paths_into(self, sink) -> int:
        """Paths ending at sink: DP over a topological order of its ancestors."""
        ancestors = self._closure(sink, self.pred)
        outdeg = {v: sum(1 for w in self.succ[v] if w in ancestors) for v in ancestors}
        count = {v: 0 for v in ancestors}
        count[sink] = 1
        ready = deque([sink])
        while ready:
            w = ready.popleft()
            for v in self.pred[w]:
                count[v] += count[w]
                outdeg[v] -= 1
                if outdeg[v] == 0:
                    ready.append(v)
        return sum(count.values())

    def materialized_elements(self) -> int:
        return sum(size * size for size in self.block_size.values())


def check_graph(shape: GraphShape, code: int, doc) -> None:
    expect(code == 0, f"graph-socle exited {code}, expected 0")
    expect(doc["line_points"] == shape.line_points, "wrong line points")
    blocks = [{"class_representative": s, "size": shape.block_size[s]} for s in shape.blocks]
    expect(doc["blocks"] == blocks, "block sizes differ from the path-count DP")
    expect(doc["socle_is_zero"] is (not shape.line_points), "wrong socle_is_zero")
    for v in shape.vertices:
        status = doc["vertices"][v]
        expect(status["line_point"] is (v in shape.walk), f"line-point status of {v!r}")
        if v in shape.walk:
            path, sink = shape.walk[v]
            expect(status["boundary_path"] == path, f"boundary path of {v!r}")
            expect(status["orbit_size"] == shape.block_size[sink], f"orbit size of {v!r}")


def check_materialized(shape: GraphShape, code: int, doc) -> None:
    check_graph(shape, code, {k: v for k, v in doc.items() if not k.startswith("cross_check")})
    n = shape.materialized_elements()
    sizes = sorted(shape.block_size.values())
    oracle = {
        f"f{p}": (
            "skipped (enumeration cap)" if p**n > ENUM_CAP
            else {"socle_dimension": n, "matches_engine": True}
        )
        for p in (2, 3)
    }
    expect(doc["cross_check_passed"] is True, "materialised cross-check failed")
    expect(
        doc["cross_check"]
        == {
            "materialized_elements": n,
            "engine_matrix_sizes": sizes,
            "symbolic_block_sizes": sizes,
            "engine_socle_dimension": n,
            "oracle": oracle,
        },
        "cross-check details differ from the closed form",
    )
