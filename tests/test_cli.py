import ast
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import associativity_fails

import steinberg
from steinberg import cli, oracle
from steinberg.algebra import SteinbergAlgebra, element_to_obj
from steinberg.builders import (
    all_groupoids_up_to,
    cyclic_group,
    disjoint_union,
    one_object_groupoid,
    pair_groupoid,
    trivial_groupoid,
)
from steinberg.fields import field_from_designator
from steinberg.graphs import GraphSocleReport, SocleBlock, lpa_socle
from steinberg.groupoid import to_json_obj
from steinberg.socle import left_ideal, minimal_ideal_generator


@pytest.fixture
def files(tmp_path):
    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "pair3": dump("pair3.json", to_json_obj(pair_groupoid(["a", "b", "c"]))),
        "pair2": dump("pair2.json", to_json_obj(pair_groupoid(["a", "b"]))),
        "pair5": dump(
            "pair5.json", to_json_obj(pair_groupoid(["a", "b", "c", "d", "e"]))
        ),
        "z2": dump("z2.json", to_json_obj(one_object_groupoid(cyclic_group(2)))),
        "line3": dump(
            "line3.json",
            {
                "vertices": ["v1", "v2", "v3"],
                "edges": [["e1", "v1", "v2"], ["e2", "v2", "v3"]],
            },
        ),
        "loop": dump(
            "loop.json", {"vertices": ["v"], "edges": [["e", "v", "v"]]}
        ),
        "broken": dump("broken.json", {"elements": ["u"]}),
        "garbage": str((tmp_path / "garbage.json")),
        "dir": str(tmp_path),
    }


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_validate_valid(run, files):
    code, out, _ = run("validate", files["pair3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["valid"] is True
    assert doc["elements"] == 9
    assert doc["units"] == ["a", "b", "c"]


def test_validate_axiom_violation_exits_1(run, files, tmp_path):
    obj = to_json_obj(pair_groupoid(["a", "b"]))
    obj["compose"] = obj["compose"][1:]  # drop one required composition
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run("validate", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"]


def test_validate_output_does_not_depend_on_the_hash_seed(tmp_path):
    # four units whose inverse map pairs u with v and w with x: the
    # violations must come out in element order, not in set order
    pairs = {"u": "v", "v": "u", "w": "x", "x": "w"}
    ids = {g: g for g in pairs}
    path = tmp_path / "swapped-units.json"
    path.write_text(json.dumps(
        {"elements": list(pairs), "source": ids, "range": ids, "inverse": pairs,
         "compose": [[g, g, g] for g in pairs]}
    ))
    src = str(Path(steinberg.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "steinberg", "validate", str(path)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert done.returncode == 1, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    violations = json.loads(outputs.pop())["violations"]
    assert [v for v in violations if v.startswith("unit ")] == [
        f"unit {g!r} is not its own inverse" for g in pairs
    ]


def test_validate_refuses_a_corrupted_z512_promptly(run, tmp_path, time_limit):
    # g * g2 is g3 in Z512; g4 keeps every axiom but associativity.  Its
    # 512^3 composable triples are over the cap, so only Light's test runs.
    obj = to_json_obj(one_object_groupoid(cyclic_group(512)))
    obj["compose"] = [[a, b, "g4" if (a, b) == ("g", "g2") else c] for a, b, c in obj["compose"]]
    path = tmp_path / "z512.json"
    path.write_text(json.dumps(obj))
    with time_limit(5):
        code, out, _ = run("validate", str(path))
    assert code == 1
    violations = json.loads(out)["violations"]
    assert violations[-1].startswith("the list is partial: the 134217728 composable triples")
    prefix = "associativity fails on the triple "
    assert all(v.startswith(prefix) for v in violations[:-1])
    triples = [ast.literal_eval(v[len(prefix) :]) for v in violations[:-1]]
    compose = {(a, b): c for a, b, c in obj["compose"]}
    assert triples and all(associativity_fails(compose, *t) for t in triples)


def test_validate_unparseable_exits_64(run, files, tmp_path):
    path = tmp_path / "notjson.json"
    path.write_text("{half a document")
    code, _, err = run("validate", str(path))
    assert code == 64
    assert "error" in err


def test_missing_file_exits_64(run, files):
    code, _, err = run("validate", files["garbage"])
    assert code == 64


def test_structurally_broken_groupoid_exits_64(run, files):
    code, _, err = run("socle", files["broken"], "--field", "q")
    assert code == 64


def test_socle_report(run, files):
    code, out, _ = run("socle", files["pair3"], "--field", "q")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["socle_dimension"] == 9
    assert doc["field"] == "q"
    assert [c["matrix_size"] for c in doc["components"]] == [3]
    assert doc["lp_holds"] is True


def test_socle_at_the_element_cap(run, tmp_path):
    path = tmp_path / "pair22.json"
    path.write_text(json.dumps(to_json_obj(pair_groupoid([f"p{i}" for i in range(22)]))))
    code, out, _ = run("socle", str(path), "--field", "q")
    assert code == 0
    doc = json.loads(out)
    assert doc["socle_dimension"] == 484
    assert [c["matrix_size"] for c in doc["components"]] == [22]


def test_socle_output_is_deterministic(run, files):
    _, first, _ = run("socle", files["pair3"], "--field", "f3")
    _, second, _ = run("socle", files["pair3"], "--field", "f3")
    assert first == second


def test_socle_matrix_sizes_agree_across_coprime_fields(run, files):
    docs = {}
    for designator in ("q", "f2", "f5"):  # |G| = 9, so 2 and 5 are coprime
        code, out, _ = run("socle", files["pair3"], "--field", designator)
        assert code == 0
        docs[designator] = json.loads(out)
    sizes = {
        d: [c["matrix_size"] for c in doc["components"]] for d, doc in docs.items()
    }
    assert sizes["q"] == sizes["f2"] == sizes["f5"]


def test_socle_lp_refusal_exits_2(run, files):
    code, out, _ = run("socle", files["z2"], "--field", "q")
    assert code == 2
    doc = json.loads(out)
    assert doc["lp_holds"] is False
    assert doc["violators"] == ["e"]
    assert "isotropy" in doc["explanation"]


def test_bad_field_exits_64(run, files):
    code, _, err = run("socle", files["pair3"], "--field", "f4")
    assert code == 64
    code, _, err = run("socle", files["pair3"], "--field", "galois")
    assert code == 64


def test_usage_errors_exit_64(run, files):
    for argv in (
        ("socle", files["pair3"]),  # missing --field
        ("frobnicate",),  # unknown subcommand
        (),
        ("graph-socle", files["line3"], "--materialize", "--field", "galois"),
        ("graph-socle", files["line3"], "--field", "galois"),
    ):
        code, out, err = run(*argv)
        assert code == 64
        assert out == ""
        assert "Traceback" not in err and err.splitlines()[-1].startswith("error: ")


def test_minimal_certificate(run, files):
    code, out, _ = run("minimal", files["z2"], "--unit", "e", "--field", "f2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["flavour"] == "absolute_zero_divisor"
    assert doc["generator"] == [["1 mod 2", "e"], ["1 mod 2", "g"]]
    assert doc["ideal_dimension"] == 1
    code, out, _ = run("minimal", files["z2"], "--unit", "e", "--field", "f3")
    assert json.loads(out)["flavour"] == "division_idempotent"


def test_minimal_output_matches_the_spanned_certificate_ideal(run, tmp_path):
    # minimal prints the closed-form certificate ideal; it must be the same
    # document, byte for byte, as one built from the span of the translates.
    path = tmp_path / "g.json"
    for g in all_groupoids_up_to(6):
        path.write_text(json.dumps(to_json_obj(g)))
        for x in g.units():
            for designator in ("q", "f2", "f3"):
                field = field_from_designator(designator)
                algebra = SteinbergAlgebra(g, field)
                certificate = minimal_ideal_generator(algebra, x)
                ideal = left_ideal(algebra, [certificate.generator])
                doc = certificate.to_json_obj()
                doc["field"] = designator
                doc["ideal_dimension"] = ideal.dimension
                doc["ideal_basis"] = [element_to_obj(b) for b in ideal.basis]
                code, out, _ = run("minimal", str(path), "--unit", x, "--field", designator)
                assert code == 0
                assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n", (g, x, designator)


def test_minimal_rejects_non_unit(run, files):
    code, _, err = run("minimal", files["pair2"], "--unit", "a<b", "--field", "q")
    assert code == 64
    code, _, err = run("minimal", files["pair2"], "--unit", "zz", "--field", "q")
    assert code == 64


def test_oracle_report(run, files):
    code, out, _ = run("oracle", files["z2"], "--field", "f2", "--semiprime")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["socle_dimension"] == 1
    assert doc["basis"] == [[["1 mod 2", "e"], ["1 mod 2", "g"]]]
    assert doc["semiprime"] is False
    assert doc["semiprime_witness"] == [["1 mod 2", "e"], ["1 mod 2", "g"]]
    assert len(doc["minimal_ideals"]) == 1
    assert len(doc["witnesses"]) == 1


def test_oracle_requires_prime_field(run, files):
    code, _, err = run("oracle", files["pair2"], "--field", "q")
    assert code == 64
    assert "prime" in err


def test_oracle_size_cap_exits_65(run, files):
    code, _, err = run("oracle", files["pair5"], "--field", "f2")
    assert code == 65
    assert "cap" in err


def test_oracle_cap_counts_the_whole_algebra(run, tmp_path):
    # three blocks of 9 + 4 + 1 elements: 3^14 vectors, over the cap
    g = disjoint_union(
        pair_groupoid(["a", "b", "c"]), pair_groupoid(["x", "y"]), trivial_groupoid("pt")
    )
    path = tmp_path / "pair3+pair2+pt.json"
    path.write_text(json.dumps(to_json_obj(g)))
    code, out, err = run("oracle", str(path), "--field", "f3", "--semiprime")
    assert code == 65
    assert out == ""
    assert "3^14" in err


def test_oracle_failed_closure_check_exits_70(run, files, monkeypatch):
    # a socle that fails its two-sided closure check is reported, not raised
    monkeypatch.setattr(oracle, "_in_span", lambda vectors, rows, p: False)
    code, out, err = run("oracle", files["pair2"], "--field", "f2")
    assert code == 70
    assert out == ""
    assert err.startswith("error: ") and "closure check" in err


def test_graph_socle_loop(run, files):
    code, out, _ = run("graph-socle", files["loop"])
    assert code == 0
    doc = json.loads(out)
    assert doc["socle_is_zero"] is True
    assert doc["blocks"] == []


def test_graph_socle_line(run, files):
    code, out, _ = run("graph-socle", files["line3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == [{"class_representative": "v3", "size": 3}]
    assert doc["line_points"] == ["v1", "v2", "v3"]


def test_graph_socle_materialize_cross_check(run, files):
    code, out, _ = run(
        "graph-socle", files["line3"], "--materialize", "--field", "q"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cross_check_passed"] is True
    detail = doc["cross_check"]
    assert detail["engine_matrix_sizes"] == [3]
    assert detail["symbolic_block_sizes"] == [3]
    assert detail["oracle"]["f2"]["matches_engine"] is True
    assert detail["oracle"]["f3"]["matches_engine"] is True


def test_graph_socle_materialize_rejects_cycles(run, files):
    code, _, err = run("graph-socle", files["loop"], "--materialize", "--field", "q")
    assert code == 64


def test_graph_socle_materialize_refuses_oversized_graphs(run, tmp_path, time_limit, diamond_chain):
    vertices, edges = diamond_chain(30)
    path = tmp_path / "diamond30.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": [list(e) for e in edges]}))
    with time_limit(5):
        code, out, err = run("graph-socle", str(path), "--materialize", "--field", "q")
    assert code == 65
    assert out == ""
    assert "cap" in err


def test_graph_socle_refuses_long_boundary_path_output(run, tmp_path, time_limit):
    # a 5 000-vertex line prints 12.5 M boundary-path edges, over the cap
    n = 5000
    vertices = [f"v{i}" for i in range(n)]
    edges = [[f"e{i}", f"v{i}", f"v{i + 1}"] for i in range(n - 1)]
    path = tmp_path / "line5000.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    with time_limit(2):
        code, out, err = run("graph-socle", str(path))
    assert code == 65
    assert out == ""
    assert "cap" in err


def test_cross_check_mismatch_exits_70(run, files, monkeypatch):
    # force the symbolic route to claim a wrong block size
    real = lpa_socle

    def lying(graph):
        report = real(graph)
        blocks = tuple(
            SocleBlock(class_representative=b.class_representative, size=2)
            for b in report.blocks
        )
        return GraphSocleReport(
            line_points=report.line_points,
            blocks=blocks,
            per_vertex=report.per_vertex,
        )

    monkeypatch.setattr(cli.graphs, "lpa_socle", lying)
    code, out, _ = run(
        "graph-socle", files["line3"], "--materialize", "--field", "q"
    )
    assert code == 70
    doc = json.loads(out)
    assert doc["cross_check_passed"] is False
    assert doc["cross_check"]["engine_matrix_sizes"] == [3]
    assert doc["cross_check"]["symbolic_block_sizes"] == [2]


def test_graph_json_validation(run, files, tmp_path):
    path = tmp_path / "badgraph.json"
    path.write_text(json.dumps({"vertices": ["v"], "edges": [["e", "v", "w"]]}))
    code, _, err = run("graph-socle", str(path))
    assert code == 64


def test_graph_ids_with_path_separators_exit_64(run, tmp_path):
    # "a.b" as one edge and a.b as a two-edge path would print the same
    # boundary path, so the graph is refused before any analysis
    graph = {
        "vertices": ["x", "y", "z", "s"],
        "edges": [["a.b", "x", "s"], ["a", "y", "z"], ["b", "z", "s"]],
    }
    path = tmp_path / "separators.json"
    path.write_text(json.dumps(graph))
    for extra in ([], ["--materialize", "--field", "q"]):
        code, out, err = run("graph-socle", str(path), *extra)
        assert code == 64
        assert out == ""
        assert "'a.b'" in err


SWEEP_COMMANDS = (
    ("validate",),
    ("socle", "--field", "q"),
    ("minimal", "--unit", "a", "--field", "f2"),
    ("oracle", "--field", "f2", "--semiprime"),
    ("graph-socle",),
    ("graph-socle", "--materialize", "--field", "f2"),
    # bad fields: the groupoid loads first, so an over-cap input exits 65
    ("socle", "--field", "galois"),
    ("oracle", "--field", "q", "--semiprime"),
    ("minimal", "--unit", "a", "--field", "f4"),
)

# The exit code of each command above, in order, on each input.
SWEEP_CODES = {
    "pair2": (0, 0, 0, 0, 64, 64, 64, 64, 64),
    "z2": (0, 2, 64, 0, 64, 64, 64, 64, 64),  # LP fails; "a" is not one of its units
    "pair5": (0, 0, 0, 65, 64, 64, 64, 64, 64),  # 2^25 oracle vectors
    "axiom-violation": (1, 64, 64, 64, 64, 64, 64, 64, 64),
    "over-cap": (65, 65, 65, 65, 64, 64, 65, 65, 65),  # 513 units
    "line3": (64, 64, 64, 64, 0, 0, 64, 64, 64),
    "loop": (64, 64, 64, 64, 0, 64, 64, 64, 64),  # a cycle has no materialisation
    "star23": (64, 64, 64, 64, 0, 65, 64, 64, 64),  # 24 boundary paths, 576 elements
    "truncated": (64,) * 9,
    "empty": (64,) * 9,
    "non-utf8": (64,) * 9,
    "deep": (64,) * 9,  # json.load raises RecursionError, a RuntimeError
    "nan": (64,) * 9,
    "huge-int": (64,) * 9,
    "top-level-array": (64,) * 9,
    "wrong-types": (64,) * 9,
    "missing": (64,) * 9,
    "directory": (64,) * 9,
}


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    pair2 = to_json_obj(pair_groupoid(["a", "b"]))
    units = [f"u{i}" for i in range(513)]
    star = [f"v{i}" for i in range(23)]
    texts = {
        "pair2": json.dumps(pair2),
        "z2": json.dumps(to_json_obj(one_object_groupoid(cyclic_group(2)))),
        "pair5": json.dumps(to_json_obj(pair_groupoid(list("abcde")))),
        "axiom-violation": json.dumps(dict(pair2, compose=pair2["compose"][1:])),
        "over-cap": json.dumps(
            {
                "elements": units,
                **{key: {u: u for u in units} for key in ("source", "range", "inverse")},
                "compose": [[u, u, u] for u in units],
            }
        ),
        "line3": json.dumps(
            {"vertices": ["v1", "v2", "v3"], "edges": [["e1", "v1", "v2"], ["e2", "v2", "v3"]]}
        ),
        "loop": json.dumps({"vertices": ["v"], "edges": [["e", "v", "v"]]}),
        "star23": json.dumps(
            {"vertices": star + ["s"], "edges": [[f"e{i}", v, "s"] for i, v in enumerate(star)]}
        ),
        "truncated": "{half a document",
        "empty": "",
        "deep": "[" * 200_000 + "]" * 200_000,
        "nan": '{"elements": NaN, "vertices": NaN}',
        "huge-int": "[1" + "0" * 5000 + "]",
        "top-level-array": "[1, 2, 3]",
        "wrong-types": '{"elements": "ab", "source": [], "vertices": [1, 2], "edges": 5}',
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text, encoding="utf-8")
    paths["non-utf8"] = root / "non-utf8.json"
    paths["non-utf8"].write_bytes(b'{"elements": ["\xff\xfe"]}')
    paths["missing"] = root / "missing.json"
    paths["directory"] = root
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("name", SWEEP_CODES)
def test_exit_codes_mean_what_the_docstring_says(run, sweep_inputs, name):
    for command, expected in zip(SWEEP_COMMANDS, SWEEP_CODES[name]):
        code, out, err = run(command[0], sweep_inputs[name], *command[1:])
        assert code == expected, command
        assert code in {0, 1, 2, 64, 65, 70}
        assert "Traceback" not in out + err
        if code in (0, 1, 2):
            doc = json.loads(out)
            assert doc["schema"] == 1
            assert err == ""
        if code == 0:
            assert doc.get("valid", True) and doc.get("cross_check_passed", True)
        elif code == 1:  # axiom violations, from validate only
            assert command[0] == "validate"
            assert doc["valid"] is False and doc["violations"]
        elif code == 2:  # condition (LP) refusal, from socle only
            assert command[0] == "socle"
            assert doc["lp_holds"] is False and doc["violators"]
        else:  # 64 malformed input, 65 size cap: an error and no document
            assert out == ""
            assert err.startswith("error: ")
            assert code == 64 or "cap" in err


FUZZ_BASES = {
    "pair2": to_json_obj(pair_groupoid(["a", "b"])),
    "z2": to_json_obj(one_object_groupoid(cyclic_group(2))),
    "line3": {"vertices": ["v1", "v2", "v3"], "edges": [["e1", "v1", "v2"], ["e2", "v2", "v3"]]},
    "diamond": {
        "vertices": ["s", "a", "b", "t"],
        "edges": [["sa", "s", "a"], ["sb", "s", "b"], ["at", "a", "t"], ["bt", "b", "t"]],
    },
}
FUZZ_VALUES = (None, 0, -1, 2.5, True, "", [], {}, ["a"], {"a": "a"}, [["a", "a", "a"]])


def _containers(node):
    if isinstance(node, (list, dict)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, list):
        for child in node:
            yield from _strings(child)
    elif isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _strings(child)


def _mutate(doc, rng: random.Random):
    """One random edit of a JSON document, in place: delete, duplicate or
    swap an entry, or replace it by another id of the document or by a
    value of the wrong type."""
    ids = sorted(set(_strings(doc))) or ["a"]
    node = rng.choice(list(_containers(doc)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    if not keys:
        if isinstance(node, dict):
            node[rng.choice(ids)] = rng.choice(ids)
        else:
            node.append(rng.choice(ids))
        return
    key, other = rng.choice(keys), rng.choice(keys)
    edit = rng.randrange(5)
    if edit == 0:
        del node[key]
    elif edit == 1:
        node[key] = rng.choice(ids)
    elif edit == 2:
        node[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    elif edit == 3 and isinstance(node, list):
        node.insert(rng.randrange(len(node) + 1), copy.deepcopy(node[key]))
    elif edit == 3:
        node[rng.choice(ids)] = copy.deepcopy(node[key])
    else:
        node[key], node[other] = node[other], node[key]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from(sorted(FUZZ_BASES)),
    seed=st.integers(0, 2**32 - 1),
    edits=st.integers(0, 4),
    field=st.sampled_from(["q", "f2", "f3", "f4", "galois"]),
    unit=st.sampled_from(["a", "e", "v1"]),
)
def test_mutated_documents_exit_with_a_documented_code(fuzz_path, base, seed, edits, field, unit):
    rng = random.Random(seed)
    doc = copy.deepcopy(FUZZ_BASES[base])
    for _ in range(edits):
        _mutate(doc, rng)
    fuzz_path.write_text(json.dumps(doc))
    for command in (
        ("validate",),
        ("socle", "--field", field),
        ("minimal", "--unit", unit, "--field", field),
        ("oracle", "--field", field, "--semiprime"),
        ("graph-socle",),
        ("graph-socle", "--materialize", "--field", field),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command[0], str(fuzz_path), *command[1:]])
        out, err = out.getvalue(), err.getvalue()
        assert code in {0, 1, 2, 64, 65, 70}, command
        assert "Traceback" not in out + err
        if code in (0, 1, 2):
            assert json.loads(out)["schema"] == 1
        else:
            assert out == "", command
            assert err.splitlines()[-1].startswith("error: "), command
