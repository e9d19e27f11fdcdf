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


# Private names that one src/ module may read from another, each kept for a
# stated reason.
PRIVATE_CROSSINGS_ALLOWED = {
    "polynomials._unchecked": "the constructor bypass for the term maps circuits and "
    "localsubset build valid by construction",
    "polynomials._add_into": "a term-map kernel of circuits._expand_terms",
    "polynomials._merge_powers": "a term-map kernel of circuits._expand_terms",
    "polynomials._multiply_terms": "a term-map kernel of circuits._expand_terms",
    "polynomials._pair_count": "a term-map kernel of circuits._expand_terms",
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


def _imported_from(node):
    """The package module an ImportFrom reads, "" for the package itself,
    None for anything else."""
    if node.level:
        return node.module or ""
    if node.module == "polyoracle" or (node.module or "").startswith("polyoracle."):
        return node.module.partition(".")[2]
    return None


def _imports(tree):
    """The package modules a tree imports, and the local names bound to them."""
    modules, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "polyoracle" and module:
                    modules.add(module)
                    if alias.asname:
                        aliases[alias.asname] = module
        elif isinstance(node, ast.ImportFrom) and (module := _imported_from(node)) is not None:
            for alias in node.names:
                modules.add(module or alias.name)
                if not module:
                    aliases[alias.asname or alias.name] = alias.name
    return modules, aliases


def _module_uses(tree, own=None):
    """(module, name) for each use of a package module's top-level name: an
    import of it, an attribute of an imported module, or, inside module
    ``own``, a bare name."""
    aliases, used = _imports(tree)[1], Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imported_from(node):
            used.update((_imported_from(node), alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            used[aliases[node.value.id], node.attr] += 1
        elif isinstance(node, ast.Name) and own and node.id not in aliases:
            used[own, node.id] += 1
    return used


def _attribute_uses(tree):
    """The name of each attribute a tree reads, except a top-level name read
    off an imported package module (``circuits.from_json_dict``)."""
    aliases = _imports(tree)[1]
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in aliases
    )


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
    property is reached only by an attribute of its name, outside its own
    definition, read in its own module or in a src/, perfbench/ or demos/
    module that imports its module; an attribute read off an imported
    package module (``circuits.from_json_dict``) reaches no method.  So a
    method that only tests call is flagged even when an unrelated class in
    a module that never imports its own has a member of the same name.
    ``TEST_ONLY_ALLOWED`` must name exactly the public names that are still
    test-only."""
    files = sorted(PACKAGE.glob("*.py"))
    callers = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files + callers}
    imports = {path: _imports(tree)[0] for path, tree in trees.items()}
    attributes = {path: _attribute_uses(tree) for path, tree in trees.items()}
    by_module = Counter()
    for path, tree in trees.items():
        by_module += _module_uses(tree, path.stem if path.parent == PACKAGE else None)
    by_module += _script_uses()
    unreached = {}
    for path in files:
        readers = [other for other in trees if other == path or path.stem in imports[other]]
        for qualified, name, node, is_method in _public_definitions(trees[path], path.stem):
            if name.startswith("_"):
                continue
            # Uses inside the definition itself (recursion) do not count.
            if is_method:
                reached = sum(attributes[other][name] for other in readers)
                reached -= _attribute_uses(node)[name]
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


def test_no_module_reads_another_modules_private_name():
    """No src/ module imports or reads a private name of another package
    module, except the names ``PRIVATE_CROSSINGS_ALLOWED`` gives reasons for."""
    crossings = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for module, name in _module_uses(ast.parse(path.read_text())):
            if module != path.stem and name.startswith("_"):
                crossings.setdefault(f"{module}.{name}", []).append(path.name)
    unexpected = sorted(f"{name} in {', '.join(where)}" for name, where in crossings.items()
                        if name not in PRIVATE_CROSSINGS_ALLOWED)
    assert not unexpected, f"private names read across modules: {unexpected}"
    stale = sorted(set(PRIVATE_CROSSINGS_ALLOWED) - set(crossings))
    assert not stale, f"allowlisted crossings that no module makes: {stale}"


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
