"""Checks on the package's source text."""

import ast
from pathlib import Path

import aicg

PACKAGE = Path(aicg.__file__).parent

# parameters whose signature a caller fixes: mc_expected_estimators calls
# mc_bias_gaussian's statistic with the draws and their projected distances
FIXED_SIGNATURES = {("montecarlo", "statistic", "dist")}


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
            unread += [(path.stem, name, p) for p in params
                       if p not in read and (path.stem, name, p) not in FIXED_SIGNATURES]
    return unread


def test_every_parameter_is_read():
    # a parameter that nothing reads is a knob with no effect
    assert _unread_parameters(PACKAGE) == []


def test_the_scan_finds_an_unread_parameter(tmp_path):
    (tmp_path / "probe.py").write_text(
        "def f(a, b):\n    return a\n\ng = lambda x, *rest: x\n", encoding="utf-8")
    assert sorted(_unread_parameters(tmp_path)) == [("probe", "<lambda>", "rest"),
                                                    ("probe", "f", "b")]
