"""The README's figures, the package's exported names and its imports match the code."""

import ast
import functools
import re
from pathlib import Path

import lpirec
from test_benchmark_hooks import load_spans

ROOT = Path(__file__).resolve().parents[1]


def test_readme_states_the_package_line_count():
    package = ROOT / "src" / "lpirec"
    total = sum(path.read_bytes().count(b"\n") for path in package.rglob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"\(`src/lpirec`\)\s+is\s+([\d,]+)\s+lines", readme)
    assert stated is not None
    assert int(stated.group(1).replace(",", "")) == total


def test_every_exported_name_resolves():
    missing = [name for name in lpirec.__all__ if not hasattr(lpirec, name)]
    assert missing == []


def test_every_dotted_package_name_in_the_readme_resolves():
    # every backticked `module.name` of an lpirec module, so a deleted name cannot linger
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {path.stem for path in (ROOT / "src" / "lpirec").glob("*.py")}
    names = [
        name
        for name in re.findall(r"`(\w+(?:\.\w+)+)", readme)
        if name.split(".")[0] in modules
    ]
    assert {"objectives._behavior_probs", "policy.Workspace"} <= set(names)

    def resolves(name):
        try:
            functools.reduce(getattr, name.split("."), lpirec)
        except AttributeError:
            return False
        return True

    assert [name for name in names if not resolves(name)] == []


def test_modules_import_each_other_only_at_module_level():
    # an import inside a function hides a dependency, and with it any import cycle
    nested = set()
    for path in sorted((ROOT / "src" / "lpirec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.ImportFrom) and inner.level > 0
                }
    assert sorted(nested) == []


def test_every_module_level_import_is_read():
    # the one exception: a name imported so that cyclebench's tracer can wrap it there
    traced = {(target, attr) for target, attr, _, _ in load_spans().BOUNDARIES}
    unread = []
    for path in sorted((ROOT / "src" / "lpirec").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and (f"lpirec.{path.stem}", name) not in traced:
                        unread.append(f"{path.name}:{name}")
    assert unread == []
