"""The README's Library example runs as written and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    after = text.split("\n## Library\n", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def _comment_of(block: str, code: str) -> str:
    line = next(line for line in block.splitlines() if line.startswith(code))
    return line.split("#", 1)[1].strip()


def test_readme_library_example():
    block = _library_block()
    namespace: dict = {}
    exec(block, namespace)

    for expression, value in (
        ("report.components[0].matrix_size", 3),
        ("report.socle_dimension", 9),
        ("oracle_socle(B).dimension", 9),
    ):
        assert _comment_of(block, expression).startswith(f"{value}")
        assert eval(expression, namespace) == value

    assert _comment_of(block, "ideal = ") == "dimension 3"
    assert namespace["ideal"].dimension == 3
    assert namespace["cert"].flavour == "division_idempotent"
    assert _comment_of(block, "cert = ").startswith("division_idempotent")

    minimality = eval("is_minimal_left_ideal(ideal, cert)", namespace)
    assert minimality.minimal
    assert minimality.method == "corner rank"
    assert '("corner rank")' in _comment_of(block, "is_minimal_left_ideal(ideal, cert)")
