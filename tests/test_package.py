"""The package's public surface: no re-exports, and no public name that only
tests reach."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "polyoracle"
INIT = PACKAGE / "__init__.py"

# Public names that only tests reach today, each kept for a stated reason.
TEST_ONLY_ALLOWED = {
    "circuits.evaluate_circuit": "acceptance criterion 6 reads it; ROADMAP items 2 and 6 will",
    "circuits.to_json_dict": "writes the circuit wire format that the tests feed to the CLI",
}


def test_package_init_holds_only_its_docstring():
    found = [
        f"line {node.lineno}: {type(node).__name__}"
        for node in ast.walk(ast.parse(INIT.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign, ast.AugAssign))
    ]
    assert not found, f"src/polyoracle/__init__.py re-exports or assigns: {found}"


def _public_definitions(tree, module):
    """(qualified name, name, node, is_method) for each top-level function,
    class and constant, and each method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield f"{module}.{node.name}.{member.name}", member.name, member, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id, node, False


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


def _imported_from(node):
    """The package module an ImportFrom reads, "" for the package itself,
    None for anything else."""
    if node.level:
        return node.module or ""
    if node.module == "polyoracle" or (node.module or "").startswith("polyoracle."):
        return node.module.partition(".")[2]
    return None


def _module_uses(tree, own=None):
    """(module, name) for each use of a package module's top-level name: an
    import of it, an attribute of an imported module, or, inside module
    ``own``, a bare name."""
    modules, used = {}, Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("polyoracle.") and alias.asname:
                    modules[alias.asname] = alias.name.partition(".")[2]
        elif isinstance(node, ast.ImportFrom) and _imported_from(node) is not None:
            module = _imported_from(node)
            for alias in node.names:
                if module:
                    used[module, alias.name] += 1
                else:
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            used[modules[node.value.id], node.attr] += 1
        elif isinstance(node, ast.Name) and own and node.id not in modules:
            used[own, node.id] += 1
    return used


def _script_uses():
    """(module, name) of each ``[project.scripts]`` entry point."""
    scripts = (ROOT / "pyproject.toml").read_text().partition("[project.scripts]")[2]
    entry_points = re.findall(r'^\S+ = "polyoracle\.(\w+):(\w+)"', scripts, re.M)
    return Counter(entry_points)


def test_public_names_have_a_non_test_caller():
    """Every public name under src/polyoracle/ is used outside tests/.

    A module-level function, class or constant is reached when code under
    src/ (its own module included, outside the name's own definition),
    perfbench/ or demos/ imports it from its module, reads it as an
    attribute of its imported module, or, in its own module, as a bare name;
    a ``[project.scripts]`` entry point counts as a caller.  A method or
    property is reached by any other use of its bare name, so ``json.loads``
    counts for a ``loads`` method, but a use that reads a package module's
    top-level name (``circuits.from_json_dict``, an import of it, a bare name
    in its own module) does not: the guard can miss a test-only method but
    never flags one that code outside tests/ really uses.
    ``TEST_ONLY_ALLOWED`` must name exactly the public names that are still
    test-only."""
    files = sorted(PACKAGE.glob("*.py"))
    callers = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files + callers}
    bare = sum((_names_used(tree) for tree in trees.values()), Counter())
    by_module = Counter()
    for path, tree in trees.items():
        by_module += _module_uses(tree, path.stem if path.parent == PACKAGE else None)
    # A bare name that reads a module's top-level name reaches no method.
    for (_, name), count in by_module.items():
        bare[name] -= count
    by_module += _script_uses()
    unreached = {}
    for path in files:
        for qualified, name, node, is_method in _public_definitions(trees[path], path.stem):
            if name.startswith("_"):
                continue
            # Uses inside the definition itself (recursion) do not count.
            if is_method:
                reached = bare[name] - _names_used(node)[name]
            else:
                inside = sum(getattr(n, "id", None) == name for n in ast.walk(node))
                reached = by_module[path.stem, name] - inside
            if reached <= 0:
                unreached[qualified] = f"{path.name}:{node.lineno}"
    unexpected = sorted(f"{where} {name}" for name, where in unreached.items()
                        if name not in TEST_ONLY_ALLOWED)
    assert not unexpected, f"public names that only tests reach: {unexpected}"
    stale = sorted(set(TEST_ONLY_ALLOWED) - set(unreached))
    assert not stale, f"allowlisted names that are gone or now have a non-test caller: {stale}"


def test_module_uses_resolve_each_import_form():
    tree = ast.parse(
        "import polyoracle.circuits as ci\n"
        "from polyoracle import permanent as pm\n"
        "from . import setcover\n"
        "from .errors import check as checked\n"
        "from polyoracle.problems import encode_pair\n"
        "ci.homogenize, pm.f_expand, setcover.hcv_branch, local_name, json.loads\n"
    )
    assert _module_uses(tree, own="oracle") == Counter({
        ("circuits", "homogenize"): 1,
        ("permanent", "f_expand"): 1,
        ("setcover", "hcv_branch"): 1,
        ("errors", "check"): 1,
        ("problems", "encode_pair"): 1,
        ("oracle", "local_name"): 1,
        ("oracle", "json"): 1,
    })
    assert _script_uses() == Counter({("cli", "main"): 1})
