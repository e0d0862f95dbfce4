"""Checks on the package's source text."""

import ast
import re
from pathlib import Path

import pytest

import aicg

PACKAGE = Path(aicg.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _unread_parameters(package):
    """(module, function, parameter) for each parameter of a def or lambda
    that its body never reads as a name; dunders keep Python's signatures."""
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__"):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [(path.stem, name, p) for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    # a parameter that nothing reads is a knob with no effect
    assert _unread_parameters(PACKAGE) == []


def test_the_scan_finds_an_unread_parameter(tmp_path):
    (tmp_path / "probe.py").write_text(
        "def f(a, b):\n    return a\n\ng = lambda x, *rest: x\n", encoding="utf-8")
    assert sorted(_unread_parameters(tmp_path)) == [("probe", "<lambda>", "rest"),
                                                    ("probe", "f", "b")]


# public names read from outside the package, its scripts and README:
# perfbench/tracer.py reads bias_t3_value's cache_info()
OUTSIDE_READERS = {"bias_t3_value"}


def _reads(node) -> set[str]:
    """The names a node reads: Name ids, Attribute names and the names that
    its imports bind."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in n.names)
    return out


def _library_blocks(readme: Path) -> list[str]:
    """The python code blocks of README's Library section."""
    text = readme.read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)(?=^## )", text, re.S | re.M)
    return re.findall(r"```python\n(.*?)```", section.group(1), re.S) if section else []


def _dead_names(package: Path, scripts: Path, readme: Path) -> list[str]:
    """Module-level public defs and classes of the package that nothing reads:
    not another statement of the package (its own body and __init__'s
    re-exports do not count), not a script, not README's Library examples."""
    defined, read = set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                own = stmt.name
                defined.add(own)
            read |= _reads(stmt) - {own}
    for path in sorted(scripts.glob("*.py")):
        read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    for block in _library_blocks(readme):
        read |= _reads(ast.parse(block))
    return sorted(defined - read - OUTSIDE_READERS)


def test_every_public_name_is_read():
    # a public function that only tests call is a second path to keep in step
    assert _dead_names(PACKAGE, ROOT / "scripts", ROOT / "README.md") == []


def test_the_scan_finds_a_dead_name(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "__init__.py").write_text("from .a import dead, used\n", encoding="utf-8")
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def dead(k):\n    return dead(k - 1) if k else 0\n\n"
        "def by_script():\n    pass\n\n"
        "def by_readme():\n    pass\n\n"
        "class Dead:\n    pass\n", encoding="utf-8")
    (package / "b.py").write_text("from .a import used\n", encoding="utf-8")
    (scripts / "s.py").write_text("import pkg\npkg.a.by_script()\n", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "## Library\n\n```python\nfrom pkg import by_readme\n```\n\n"
        "## Other\n\n```python\nfrom pkg import Dead\n```\n", encoding="utf-8")
    assert _dead_names(package, scripts, tmp_path / "README.md") == ["Dead", "dead"]


def _attribute_loads(tree) -> set[str]:
    """The attribute names a tree reads: x.name in a Load context."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _unread_slots(package: Path, scripts: Path, readme: Path) -> list[str]:
    """Class.field for each __slots__ field of the package's classes whose
    name no attribute load reads: not in the package, not in a script, not
    in README's Library examples.  A field that shares its name with one
    that is read passes unseen."""
    slots, loads = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                    slots += [(cls.name, field) for field in ast.literal_eval(stmt.value)]
        loads |= _attribute_loads(tree)
    for path in sorted(scripts.glob("*.py")):
        loads |= _attribute_loads(ast.parse(path.read_text(encoding="utf-8")))
    for block in _library_blocks(readme):
        loads |= _attribute_loads(ast.parse(block))
    return sorted(f"{cls}.{field}" for cls, field in slots if field not in loads)


def test_every_slot_is_read():
    # a record field that nothing reads is a second copy of a fact to keep in step
    assert _unread_slots(PACKAGE, ROOT / "scripts", ROOT / "README.md") == []


def test_the_scan_finds_an_unread_slot(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "a.py").write_text(
        "class Point:\n"
        "    __slots__ = ('x', 'y', 'written', 'by_script', 'by_readme')\n\n"
        "    def __init__(self):\n"
        "        self.written = 0\n\n"
        "    def norm(self):\n"
        "        return self.x\n\n"
        "class Empty:\n    __slots__ = ()\n", encoding="utf-8")
    (package / "b.py").write_text("def f(p):\n    return p.y\n", encoding="utf-8")
    (scripts / "s.py").write_text("print(point.by_script)\n", encoding="utf-8")
    (tmp_path / "README.md").write_text(
        "## Library\n\n```python\npoint.by_readme\n```\n\n"
        "## Other\n\n```python\npoint.written\n```\n", encoding="utf-8")
    assert _unread_slots(package, scripts, tmp_path / "README.md") == ["Point.written"]


def _unused_imports(paths) -> list[tuple[str, str]]:
    """(file name, name) for each name that a module-level import binds and
    no Name node of the module reads."""
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound += [a.asname or a.name for a in stmt.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(path.name, name) for name in bound if name not in read]
    return unused


def test_every_import_is_read():
    # __init__.py imports to re-export, so it is left out
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("tests", "scripts", "tools"):
        paths += sorted((ROOT / folder).glob("*.py"))
    assert _unused_imports(paths) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import json, sys\nimport os.path\nfrom re import sub as replace, split\n\n"
        "def f():\n    import math\n    return sys.argv, split\n", encoding="utf-8")
    assert _unused_imports([probe]) == [("probe.py", "json"), ("probe.py", "os"),
                                        ("probe.py", "replace")]


def test_only_the_entry_point_touches_the_collector():
    # importing the package or calling main() in-process must leave the
    # caller's collector as it was; only cli.run, which ends the process,
    # freezes the heap
    users = [(path.stem, getattr(stmt, "name", None))
             for path in sorted(PACKAGE.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body
             if "gc" in _reads(stmt)]
    assert users == [("cli", "run")]


def test_one_version():
    # select prints aicg.__version__; the package metadata must say the same
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == aicg.__version__
