"""Every top-level def or class of the library has a caller in `src/`, or
README's "Python API" section lists it as public API with its reason.

A caller is a load of the name, in one of two forms:

* the bare name, in its own module or in a module that imports it with
  `from .mod import name`;
* `alias.name`, where `alias` is bound by `from . import mod`.

A method of the same name is not a caller: `PolyCone.ri_contains` does not
load a module-level `ri_contains`, and `Projection.lift_face` does not load
a module-level `lift_face`.  `__init__` only re-exports, so it loads
nothing.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "facelat"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(trees) -> set[tuple[str, str]]:
    return {(mod, node.name) for mod, tree in trees.items() if mod != "__init__"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _loads(mod: str, tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs that `tree`, the module `mod`, loads."""
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    aliases[a.asname or a.name] = a.name
                else:
                    imported[a.asname or a.name] = (node.module, a.name)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(imported.get(node.id, (mod, node.id)))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            out.add((aliases[node.value.id], node.attr))
    return out


def uncalled() -> set[tuple[str, str]]:
    trees = _trees()
    loaded = set().union(*(_loads(mod, tree) for mod, tree in trees.items()))
    return _definitions(trees) - loaded


def api_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Python API\n(.*?)(?=^## )", text, re.M | re.S)
    assert match, 'README has no "Python API" section'
    return match.group(1)


def readme_api() -> set[tuple[str, str]]:
    """The `module.name` entries of README's "Python API" section, outside
    its code blocks."""
    prose = re.sub(r"^```.*?^```", "", api_section(), flags=re.M | re.S)
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    return {(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", prose)
            if mod in modules}


def test_every_definition_has_a_caller_or_is_listed_public():
    missing = sorted(f"{mod}.{name}" for mod, name in uncalled() - readme_api())
    assert not missing, f"no caller in src/ and not in README's Python API: {missing}"


def test_every_listed_name_resolves():
    listed = readme_api()
    assert listed
    unresolved = sorted(f"{mod}.{name}" for mod, name in listed
                        if not hasattr(importlib.import_module(f"facelat.{mod}"), name))
    assert not unresolved, f"README's Python API lists missing names: {unresolved}"


def test_the_rule_tells_a_method_from_a_module_function():
    """A load counts only as a bare name or through a module alias."""
    tree = ast.parse("from . import polytope as pt\n"
                     "from .exactgeom import pos_hull as ph\n"
                     "cone.ri_contains(x)\n"
                     "proj.lift_face(f)\n"
                     "pt.projection(p, b)\n"
                     "ph([], 2)\n")
    assert _loads("checks", tree) >= {("polytope", "projection"),
                                      ("exactgeom", "pos_hull")}
    assert ("exactgeom", "ri_contains") not in _loads("checks", tree)
    assert ("polytope", "lift_face") not in _loads("checks", tree)


def test_the_readme_example_runs(capsys):
    """The section's one Python block, as CI's `extras` job runs it."""
    blocks = re.findall(r"^```python\n(.*?)^```", api_section(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "lifts to face (0, 1, 2, 3, 4, 5, 6, 7)" in capsys.readouterr().out
