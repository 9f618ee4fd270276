"""The public names stay resolvable: every name the benchmark's tracer wraps
(``perfbench/tracing.py::TARGETS``) and every name in an ``__all__``.

The tracer looks each target up with ``getattr`` and wraps a class's
``__post_init__``, so a renamed or deleted target would crash a traced
benchmark run. TARGETS is read from the source with ``ast``; perfbench is not
imported. README's "Library quick tour" block is run as written, so the
documented API cannot drift from the code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import teleportsim

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def traced_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


TARGETS = traced_targets()
MODULES = ["teleportsim"] + [
    f"teleportsim.{info.name}" for info in pkgutil.iter_modules(teleportsim.__path__)
]


def test_targets_are_read():
    assert len(TARGETS) > 0


@pytest.mark.parametrize("mod, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(mod, attr):
    module = importlib.import_module(f"teleportsim.{mod}")
    assert hasattr(module, attr), f"teleportsim.{mod} has no {attr!r}"
    target = getattr(module, attr)
    if isinstance(target, type):
        assert callable(getattr(target, "__post_init__", None)), (
            f"teleportsim.{mod}.{attr} defines no __post_init__ to trace"
        )
    else:
        assert callable(target)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block under '## Library quick tour'"
    namespace = {}
    exec(compile(match.group(1), "README.md", "exec"), namespace)
    assert abs(namespace["delta"] - namespace["report"].delta) <= 1e-12
