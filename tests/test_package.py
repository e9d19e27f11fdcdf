"""The package's public surface: no re-exports, and no public name that only
tests reach."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "polyoracle"
INIT = PACKAGE / "__init__.py"

# Public names that only tests reach today, each kept for a stated reason.
TEST_ONLY_ALLOWED = {
    "evaluate_circuit": "acceptance criterion 6 reads it; ROADMAP items 2 and 6 will call it",
    "g_count_dp": "the segment count G_K that test_trace_uniqueness_audit multiplies per trace",
    "z_var_dp": "the z factor that test_setpartition_traces_vs_brute multiplies per trace",
}


def test_package_init_holds_only_its_docstring():
    found = [
        f"line {node.lineno}: {type(node).__name__}"
        for node in ast.walk(ast.parse(INIT.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign, ast.AugAssign))
    ]
    assert not found, f"src/polyoracle/__init__.py re-exports or assigns: {found}"


def _public_definitions(tree):
    """(name, node) for each public top-level function, class and constant,
    and each public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _names_used(tree):
    """Every bare name a tree reads: Name ids, Attribute attrs, import aliases."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
    return used


def test_public_names_have_a_non_test_caller():
    """Every public name under src/polyoracle/ is used outside tests/.

    A name is reached when code under src/ (its own module included, outside
    the name's own definition), perfbench/ or demos/ uses it as a Name, an
    Attribute or an import alias.  Matching is by bare name, so any use of
    the same name elsewhere (``json.loads`` for a ``loads``, ``set.add`` for
    an ``add``) counts: the guard can miss a test-only name but never flags
    one that code outside tests/ really uses.  ``TEST_ONLY_ALLOWED`` must
    name exactly the public names that are still test-only."""
    files = sorted(PACKAGE.glob("*.py"))
    callers = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files + callers}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unreached = {}
    for path in files:
        for name, node in _public_definitions(trees[path]):
            # Uses inside the definition itself (recursion) do not count.
            if not name.startswith("_") and used[name] - _names_used(node)[name] <= 0:
                unreached[name] = f"{path.name}:{node.lineno}"
    unexpected = sorted(f"{where} {name}" for name, where in unreached.items()
                        if name not in TEST_ONLY_ALLOWED)
    assert not unexpected, f"public names that only tests reach: {unexpected}"
    stale = sorted(set(TEST_ONLY_ALLOWED) - set(unreached))
    assert not stale, f"allowlisted names that are gone or now have a non-test caller: {stale}"
