"""The benchmark under perfbench/ calls the package by name: its probes import
layer functions, and its worker wraps, by name, the functions that cli
imports.  These tests read those files without running them, so a renamed
function or a changed signature fails here and not only in a traced
benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from grasspencils import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    path = PERFBENCH / name
    return ast.parse(path.read_text(), str(path))


def _package_names(tree):
    """{local name: object} for every `from grasspencils... import` in tree;
    a name that does not resolve fails the test."""
    names = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "grasspencils"):
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(module, alias.name):
                importlib.import_module(f"{node.module}.{alias.name}")
            names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


@pytest.mark.parametrize("name", ["probes.py", "worker.py"])
def test_package_imports_resolve(name):
    assert _package_names(_tree(name))


def test_probe_calls_bind_to_the_package_signatures():
    tree = _tree("probes.py")
    names = _package_names(tree)
    calls = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in names):
            continue
        signature = inspect.signature(names[node.func.id])
        try:
            signature.bind(*node.args,
                           **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"probes.py line {node.lineno}: "
                        f"{node.func.id}{signature}: {exc}")
        calls += 1
    assert calls


def _traced():
    """{layer: names} of the worker's TRACED table."""
    return next(ast.literal_eval(node.value)
                for node in _tree("worker.py").body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED"])


def test_traced_names_are_callables_of_cli():
    for layer, names in _traced().items():
        for name in names:
            assert callable(getattr(cli, name, None)), \
                f"cli has no callable {name} ({layer})"


def test_traced_names_are_looked_up_when_called(tmp_path, monkeypatch):
    # the worker replaces these cli globals before it runs a workload, so
    # cli must call each one through its global name, not an early binding
    called = set()

    def recorder(name, fn):
        def record(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return record

    traced = {name for names in _traced().values() for name in names}
    for name in traced:
        monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))
    for argv in (["tables", "--p", "5"], ["search", "--p", "5"],
                 ["hodge", "--rn", "2,4", "--t", "2"]):
        assert cli.main([*argv, "--outdir", str(tmp_path)]) == 0
    assert called == traced
