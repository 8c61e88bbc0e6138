"""The exported surface of every moymf module stays importable, and the
relation table is the only source of relation names."""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import moymf
from moymf import analysis, cli

MODULES = ["moymf"] + sorted(
    f"moymf.{info.name}" for info in pkgutil.iter_modules(moymf.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name: str) -> None:
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names missing objects: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name: str) -> None:
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


# the public surface, written out: a name added to or deleted from
# moymf.__all__ shows up as an edit to this list
PACKAGE_ALL = [
    "Alphabet", "ColorConstraintViolation", "ColorMismatch", "ConditionUnmet",
    "CutoffExceeded", "DEFAULT_CUTOFF", "DegreeMismatch", "Diagram", "DiagramSyntaxError",
    "GradedFreeModule", "GradedVar", "InhomogeneousRow", "Irreducible", "KoszulMF",
    "L_poly", "Lambda_poly", "LogEntry", "MatrixFactorization", "NotClosed", "Poly",
    "PotentialMismatch", "QLaurent", "QuotientRing", "RELATION_NAMES", "ReductionSession",
    "RegularityUnverified", "SparseMat", "V_poly", "ZeroScalar", "absorb_zero_row",
    "boundary_potential", "compile_diagram", "divided_difference",
    "divided_difference_values", "euler_characteristic", "euler_of_diagram",
    "exclude_variable", "exclusion_candidate", "glue", "homology", "jacobi_series",
    "koszul_expand", "merge_bases", "moy_bracket", "oracle_crosscheck", "p_coeff", "parse",
    "poincare_regular_quotient", "power_sum_F", "power_sum_in", "product_term", "qbinomial",
    "quantum_integer", "regularity_heuristic", "render", "replace_first_sequence",
    "replace_second_sequence", "row_op", "scalar_twist", "transpose_row", "verify_relation",
]


def test_package_all_lists_its_public_names() -> None:
    public = [
        name
        for name, value in vars(moymf).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(moymf.__all__) == sorted(public) == PACKAGE_ALL


def test_relation_names_follow_the_table() -> None:
    assert analysis.RELATION_NAMES == tuple(analysis.RELATIONS)
    for name, (arity, sides, structural) in analysis.RELATIONS.items():
        assert isinstance(arity, int) and arity > 0, name
        assert callable(sides), name
        assert structural is None or callable(structural), name


def _is_int_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_no_true_division_of_an_int_literal() -> None:
    # coefficients are ints where integral, and 1 / c on an int is a float:
    # an inverse must go through poly_core._inverse
    hits = []
    for path in sorted(Path(moymf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Div)
                and _is_int_literal(node.left)
            ):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


_ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment() -> None:
    # every input is an argument or an option: no module reads os.environ
    # or calls os.getenv, so no hidden setting changes an answer
    hits = []
    for path in sorted(Path(moymf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in _ENVIRONMENT_READERS
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in _ENVIRONMENT_READERS for alias in node.names)
            ):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise AssertionError("parser has no subcommands")


def test_verify_command_offers_every_relation() -> None:
    verify = _subparser(cli.build_parser(), "verify")
    (relation,) = [a for a in verify._actions if a.dest == "relation"]
    assert tuple(relation.choices) == analysis.RELATION_NAMES
