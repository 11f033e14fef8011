"""Command line interface.

Subcommands: validate, socle, minimal, oracle, graph-socle.  Every output is
a JSON document with a top-level "schema": 1, printed with sorted keys and
fixed indentation so identical inputs produce identical bytes.

Exit codes: 0 success (for validate, only when the groupoid is valid),
1 axiom violations from validate, 2 socle refusal under condition (LP),
64 malformed inputs, 65 size caps, 70 cross-check mismatch (the
--materialize comparison, or a failed internal check such as the oracle's
closure check of its socle).  Only main turns an exception into a code:
SizeCapExceeded is 65, any other RuntimeError is 70, and any ValueError,
from a loader or from the CLI's own checks, is 64.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import graphs, groupoid
from .algebra import SteinbergAlgebra, element_to_obj
from .fields import PrimeField, field_from_designator
from .groupoid import GroupoidValidationError
from .limits import SizeCapExceeded
from .oracle import oracle_is_semiprime, oracle_minimal_ideals, oracle_socle
from .socle import (
    LPViolationError,
    certificate_ideal,
    # Not called here: bench/tracing.py patches cli.left_ideal by name, so
    # the import stays until the tracer stops reading re-imports (ROADMAP
    # item 9).
    left_ideal,
    minimal_ideal_generator,
    socle as compute_socle,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_LP_REFUSAL = 2
EXIT_BAD_INPUT = 64
EXIT_SIZE_CAP = 65
EXIT_MISMATCH = 70


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which would collide with the
    # condition (LP) refusal code; route usage problems to 64 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    """A fault the CLI finds itself, rather than a loader."""


def _print_doc(doc: dict):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        # A RuntimeError, which main would report as a failed internal check.
        raise _UsageError(f"{path} nests too deeply to load: {exc}") from exc


def _load_groupoid(path: str) -> groupoid.FiniteGroupoid:
    return groupoid.from_json_obj(_load_json(path))


def _cmd_validate(args) -> int:
    try:
        g = _load_groupoid(args.groupoid)
    except GroupoidValidationError as exc:
        _print_doc({"schema": 1, "valid": False, "violations": exc.violations})
        return EXIT_INVALID
    _print_doc(
        {
            "schema": 1,
            "valid": True,
            "violations": [],
            "elements": len(g.elements),
            "units": list(g.units()),
        }
    )
    return EXIT_OK


def _cmd_socle(args) -> int:
    g = _load_groupoid(args.groupoid)
    field = field_from_designator(args.field)
    algebra = SteinbergAlgebra(g, field)
    try:
        report = compute_socle(algebra)
    except LPViolationError as exc:
        _print_doc(
            {
                "schema": 1,
                "lp_holds": False,
                "violators": list(exc.report.violators),
                "explanation": exc.report.explanation,
            }
        )
        return EXIT_LP_REFUSAL
    _print_doc(report.to_json_obj())
    return EXIT_OK


def _cmd_minimal(args) -> int:
    g = _load_groupoid(args.groupoid)
    field = field_from_designator(args.field)
    algebra = SteinbergAlgebra(g, field)
    if args.unit not in g.index or not g.is_unit(args.unit):
        raise _UsageError(f"{args.unit!r} is not a unit of the groupoid")
    certificate = minimal_ideal_generator(algebra, args.unit)
    ideal = certificate_ideal(certificate)
    doc = certificate.to_json_obj()
    doc["field"] = field.designator
    doc["ideal_dimension"] = ideal.dimension
    doc["ideal_basis"] = [element_to_obj(b) for b in ideal.basis]
    _print_doc(doc)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _load_groupoid(args.groupoid)
    field = field_from_designator(args.field)
    algebra = SteinbergAlgebra(g, field)
    minimal = oracle_minimal_ideals(algebra)
    socle_ideal = oracle_socle(algebra, minimal=minimal)
    doc = {
        "schema": 1,
        "field": field.designator,
        "socle_dimension": socle_ideal.dimension,
        "basis": [element_to_obj(b) for b in socle_ideal.basis],
        "minimal_ideals": [
            {
                "dimension": ideal.dimension,
                "basis": [element_to_obj(b) for b in ideal.basis],
            }
            for ideal in minimal
        ],
        "witnesses": [element_to_obj(ideal.generators[0]) for ideal in minimal],
    }
    if args.semiprime:
        report = oracle_is_semiprime(algebra)
        doc["semiprime"] = report.semiprime
        doc["semiprime_witness"] = (
            element_to_obj(report.witness) if report.witness is not None else None
        )
    _print_doc(doc)
    return EXIT_OK


def _materialized_cross_check(graph_obj, report, field):
    """Engine and oracle on the materialised groupoid against the symbolic
    blocks.  Returns (ok, detail dict)."""
    mat = graphs.materialize_boundary_groupoid(graph_obj)
    algebra = SteinbergAlgebra(mat, field)
    engine_report = compute_socle(algebra)
    engine_sizes = sorted(c.matrix_size for c in engine_report.components)
    block_sizes = sorted(b.size for b in report.blocks if b.size is not graphs.INFINITE)
    detail = {
        "materialized_elements": len(mat.elements),
        "engine_matrix_sizes": engine_sizes,
        "symbolic_block_sizes": block_sizes,
        "engine_socle_dimension": engine_report.socle_dimension,
        "oracle": {},
    }
    ok = engine_sizes == block_sizes
    for p in (2, 3):
        shadow = SteinbergAlgebra(mat, PrimeField(p))
        try:
            oracle_ideal = oracle_socle(shadow)
        except SizeCapExceeded:
            detail["oracle"][f"f{p}"] = "skipped (enumeration cap)"
            continue
        # The engine's socle is the standard basis over every field, and its
        # 0 and 1 entries compare equal to the oracle's GF(p) residues.
        same = oracle_ideal.rows == tuple(tuple(b.to_vector()) for b in engine_report.socle_basis)
        detail["oracle"][f"f{p}"] = {
            "socle_dimension": oracle_ideal.dimension,
            "matches_engine": same,
        }
        ok = ok and same and oracle_ideal.dimension == engine_report.socle_dimension
    return ok, detail


def _cmd_graph_socle(args) -> int:
    field = field_from_designator(args.field)
    graph_obj = graphs.from_json_obj(_load_json(args.graph))
    report = graphs.lpa_socle(graph_obj)
    doc = report.to_json_obj()
    if not args.materialize:
        _print_doc(doc)
        return EXIT_OK
    ok, detail = _materialized_cross_check(graph_obj, report, field)
    doc["cross_check"] = detail
    doc["cross_check_passed"] = ok
    _print_doc(doc)
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steinberg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every groupoid axiom")
    p.add_argument("groupoid")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("socle", help="socle and matrix decomposition")
    p.add_argument("groupoid")
    p.add_argument("--field", required=True, help="'q' or 'f<p>'")
    p.set_defaults(func=_cmd_socle)

    p = sub.add_parser("minimal", help="minimal ideal certificate at a unit")
    p.add_argument("groupoid")
    p.add_argument("--unit", required=True)
    p.add_argument("--field", required=True, help="'q' or 'f<p>'")
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("oracle", help="brute-force minimal ideals and socle")
    p.add_argument("groupoid")
    p.add_argument("--field", required=True, help="'f<p>' (prime fields only)")
    p.add_argument("--semiprime", action="store_true", help="also decide semiprimeness")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("graph-socle", help="socle blocks of a path algebra")
    p.add_argument("graph")
    p.add_argument("--materialize", action="store_true",
                   help="cross-check on the boundary-path groupoid (acyclic graphs)")
    p.add_argument("--field", default="q", help="'q' or 'f<p>' for the cross-check")
    p.set_defaults(func=_cmd_graph_socle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except RuntimeError as exc:
        # A failed internal cross-check, such as an oracle socle that is not
        # closed under multiplication; SizeCapExceeded is caught above.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
