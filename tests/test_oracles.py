"""The test references stay independent of the code they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
# Input types only: a reference may read an instance, never compute with the library.
INPUT_TYPES = {
    "ArithmeticCircuit",
    "ConstGate",
    "InputGate",
    "MulGate",
    "GraphInput",
    "PatternGraph",
    "WeightedGraphInput",
    "BinaryMatrix",
    "FSpec",
    "SetFamily",
}


def _is_library(module):
    return module is not None and module.split(".")[0] == "polyoracle"


def test_oracles_import_only_input_types():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names if _is_library(alias.name)]
        elif isinstance(node, ast.ImportFrom) and _is_library(node.module):
            imported += [alias.name for alias in node.names if alias.name not in INPUT_TYPES]
    assert not imported, f"tests/oracles.py imports library code: {imported}"
