"""The public names stay resolvable: every name the benchmark's tracer wraps
(``perfbench/tracing.py::TARGETS``) and every name in an ``__all__``.

The tracer looks each target up with ``getattr`` and wraps a class's
``__post_init__``, so a renamed or deleted target would crash a traced
benchmark run. TARGETS is read from the source with ``ast``; perfbench is not
imported. Every construction of a traced value class runs its
``__post_init__`` exactly once, so the tracer's call counts are the
constructions. README's "Library quick tour" block and its CLI examples are
run as written, so the documented API and commands cannot drift from the
code."""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import teleportsim
from teleportsim.cli import main
from teleportsim.envmodel import EnvironmentModel, direct_report, evolve, noisy_teleport
from teleportsim.qcore import (
    X, DensityMatrix, Gate, Ket, apply_gate, bell_basis, born_measure, ket_from_amplitudes,
    seeded_stream, to_density,
)
from teleportsim.teleport import alice_measure, enumerate_branches, prepare_joint, run_ideal

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


PSI = ket_from_amplitudes(0.6, 0.8j)
ENV = EnvironmentModel(0.5 + 0.2j, 0.9, 1.1)

# (construction, Kets, DensityMatrix values, Gates it builds)
CONSTRUCTIONS = {
    "ket-list": (lambda: Ket([1, 0], ("1",)), 1, 0, 0),
    "ket-ndarray": (lambda: Ket(np.array([0.6, 0.8]), ("1",)), 1, 0, 0),
    "ket-rejected": (lambda: Ket([1, 1], ("1",)), 1, 0, 0),
    "ket_from_amplitudes": (lambda: ket_from_amplitudes(0.6, 0.8j), 1, 0, 0),
    "density-rows": (lambda: DensityMatrix([[1, 0], [0, 0]]), 0, 1, 0),
    "density-ndarray": (lambda: DensityMatrix(np.eye(2) / 2), 0, 1, 0),
    "density-rejected": (lambda: DensityMatrix([[1, 0], [0, 1]]), 0, 1, 0),
    "gate": (lambda: Gate("X", [[0, 1], [1, 0]]), 0, 0, 1),
    "to_density": (lambda: to_density(PSI), 0, 1, 0),
    "prepare_joint": (lambda: prepare_joint(PSI), 1, 0, 0),
    "alice_measure": (lambda: alice_measure(prepare_joint(PSI), seeded_stream(3)), 2, 0, 0),
    "run_ideal": (lambda: run_ideal(PSI, 3), 2, 0, 0),
    "enumerate_branches": (lambda: enumerate_branches(PSI), 8, 0, 0),
    "apply_gate": (lambda: apply_gate(PSI, X, 0), 1, 0, 0),
    "born_measure": (lambda: born_measure(prepare_joint(PSI), bell_basis(), (0, 1), seeded_stream(3)), 2, 0, 0),
    "direct_report": (lambda: direct_report(0.6, 0.8j, ENV), 0, 1, 0),
    "noisy_teleport": (lambda: noisy_teleport(PSI, ENV, 3), 2, 1, 0),
    "evolve": (lambda: evolve(0.6, 0.8j, ENV), 3, 0, 0),
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_each_construction_runs_the_traced_hook_once(monkeypatch, name):
    # Wrapped the way perfbench's tracer wraps it: a constructor that skipped
    # the hook would leave the traced call counts at zero.
    counts = {}
    for cls in (Ket, DensityMatrix, Gate):
        def counted(*args, _cls=cls, _hook=cls.__post_init__, **kwargs):
            counts[_cls] = counts.get(_cls, 0) + 1
            return _hook(*args, **kwargs)
        monkeypatch.setattr(cls, "__post_init__", counted)
    build, kets, densities, gates = CONSTRUCTIONS[name]
    if name.endswith("-rejected"):
        with pytest.raises(ValueError):
            build()
    else:
        build()
    assert counts == {cls: n for cls, n in ((Ket, kets), (DensityMatrix, densities), (Gate, gates)) if n}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from teleportsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(teleportsim.__all__)


def test_no_name_is_exported_by_two_modules():
    # The package's __all__ is its modules' lists joined, so a name in two of
    # them would appear in it twice.
    assert len(teleportsim.__all__) == len(set(teleportsim.__all__))


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert match, "README.md has no python block under '## Library quick tour'"
    namespace = {}
    exec(compile(match.group(1), "README.md", "exec"), namespace)
    assert abs(namespace["delta"] - namespace["report"].delta) <= 1e-12


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert match, "README.md has no sh block under '## CLI'"
    commands = [shlex.split(line) for line in match.group(1).splitlines() if line.startswith("teleportsim ")]
    assert commands, "README.md's CLI block has no teleportsim command"
    monkeypatch.chdir(tmp_path)  # the sweep example writes into the cwd
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
    assert capsys.readouterr().err == ""
