"""The cap table in errors.py is the one place where size limits live."""

import ast
from pathlib import Path

import pytest

import polyoracle.circuits as ci
import polyoracle.localsubset as ls
import polyoracle.permanent as pm
import polyoracle.polynomials as poly
import polyoracle.setcover as sc
from polyoracle import errors

SOURCES = Path(__file__).resolve().parents[1] / "src" / "polyoracle"
SIZE_ERRORS = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.TooLarge)
}


def _constructed(node):
    """The name of the class a call or a bare ``raise Class`` constructs."""
    if isinstance(node, ast.Raise) and not isinstance(node.exc, ast.Call):
        node = node.exc
    elif isinstance(node, ast.Call):
        node = node.func
    else:
        return None
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_only_the_cap_table_raises_size_errors():
    """No module but errors.py constructs a TooLarge-family exception or
    defines a module-level *_CAP / *_LIMIT constant."""
    modules = sorted(SOURCES.glob("*.py"))
    assert len(modules) > 5
    found = []
    for path in modules:
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if _constructed(node) in SIZE_ERRORS:
                found.append(f"{path.name}:{node.lineno} constructs {_constructed(node)}")
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", 0)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith(("_CAP", "_LIMIT")):
                    found.append(f"{path.name}:{node.lineno} defines {target.id}")
    assert not found, found


def test_every_cap_names_a_size_error():
    for name, (limit, error, bounds) in errors.CAPS.items():
        assert isinstance(limit, int) and limit > 0, name
        assert issubclass(error, errors.TooLarge) and bounds, name


def _matrix(n):
    return pm.matrix_from_rows([[1] * n for _ in range(n)])


def _one_witness(alpha, beta):
    member = ls.Member(range(alpha + beta), None, lambda *codes: codes[0] == 1)
    return ls.LSProblemSpec("one", alpha, beta, 1, members=(member,))


# name -> (a call that checks exactly ``value`` against that cap, value)
BOUNDARIES = {
    "brute_walk": (lambda: ls.brute_solve(_one_witness(1, 1), ls.ls_instance(5, [1])), 4),
    "b_pool": (lambda: ls.brute_solve(_one_witness(1, 1), ls.ls_instance(5, [1])), 4),
    "witness_slots": (lambda: list(ls.accepted_tuples([[1]] * 3, lambda *codes: True)), 3),
    # One witness of 3 monomials of degree 1 among 3 candidates.
    "literal": (lambda: ls.formulation_polynomial(_one_witness(1, 0), 3, 1), 3),
    "literal_candidates": (lambda: ls.formulation_polynomial(_one_witness(1, 0), 3, 1), 3),
    "grid_bits": (lambda: ls.block_length(4, 3, 1), 6),
    "permanent_brute": (lambda: pm.permanent_brute(_matrix(3)), 3),
    "permanent_formulation": (lambda: pm.permanent_via_formulation(_matrix(3)), 3),
    "g_target": (lambda: pm.g_count_dp(_matrix(3), [1, 2, 3], 0b111, 0, 0), 3),
    "setpartition_universe": (
        lambda: sc.setpartition_via_traces(sc.family_from_lists(4, [[1, 2], [3, 4]]), 2, 1),
        4,
    ),
    "z_universe": (lambda: sc.z_var_dp(sc.family_from_lists(3, [[1, 2]]), 0b011, 0b100, 1), 2),
    "hcv_branch": (lambda: sc.hcv_branch(sc.family_from_lists(4, [[1, 4]]), 4, 1, 1), 3),
    "hcv_overlap": (
        lambda: sc.hcv_expand_setcover(sc.family_from_lists(4, [[1, 2, 3]]), 3),
        3,
    ),
    "gate_terms": (
        lambda: ci.expand_to_polynomial(
            ci.ArithmeticCircuit(2, (ci.InputGate(0), ci.InputGate(1), ci.AddGate(0, 1)), 2)
        ),
        2,
    ),
    "miller_rabin": (lambda: poly.is_prime(10_000_019), 10_000_019),
}


def test_boundaries_cover_the_table():
    assert set(BOUNDARIES) == set(errors.CAPS)


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_cap_boundary(monkeypatch, set_cap, name):
    """Each cap admits its limit and refuses one more, with its own error
    class and a message that names it."""
    monkeypatch.delenv("POLYORACLE_CAP", raising=False)
    call, value = BOUNDARIES[name]
    set_cap(name, value)
    call()
    set_cap(name, value - 1)
    with pytest.raises(errors.TooLarge, match=f"cap {name} exceeded: ") as caught:
        call()
    assert type(caught.value) is errors.CAPS[name][1]
