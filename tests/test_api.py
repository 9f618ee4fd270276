"""The public names stay resolvable: every name the benchmark's tracer wraps
(``perfbench/tracing.py::TARGETS``) and every name in an ``__all__``.

The tracer looks each target up with ``getattr`` and wraps a class's
``__post_init__``, so a renamed or deleted target would crash a traced
benchmark run. TARGETS is read from the source with ``ast``; perfbench is not
imported. Every check of a traced value class runs its ``__post_init__``
exactly once, so the tracer's call counts are the checks: every
construction but a report's rho3, which the package stores unchecked and
which runs no hook. A protocol record's two Kets are built once, when first
read, and then kept. README's "Library quick tour" block and its
CLI examples are run as written, and its by-path list is read against each
module's source, so the documented API and commands cannot drift from the
code. A failing property test run under the project's pytest
settings reports its falsifying example."""

import ast
import importlib
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import teleportsim
from teleportsim.cli import SweepConfig, UsageError, _check_numbers, build_parser, main
from teleportsim.envmodel import (
    DEGENERATE_TOL, OVERLAP_TOL, DegenerateModelError, DeviationReport, EnvironmentModel, closed_form, deviation,
    direct_report, evolve, noisy_teleport, reduced_state,
)
from teleportsim.qcore import (
    X, DensityMatrix, Gate, Ket, _pure_density, _qubit_rows, apply_gate, bell_basis, born_measure, fidelity,
    ket_from_amplitudes, normalized_amplitudes, purity, seeded_stream, to_density,
)
from teleportsim.teleport import (
    CORRECTIONS, OUTCOME_ORDER, BellOutcome, TeleportRecord, enumerate_branches, prepare_joint, run_ideal,
)

from support import NEAR_DEGENERATE, SQRT_HALF, coefficients, delivered_pair, overlaps, qubits

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

# Each model, report and record field in declaration order; a record's two
# Kets are built on first read.
FIELDS = {
    EnvironmentModel: ("gamma", "c0", "c1"),
    TeleportRecord: ("outcome", "conditional_state", "corrected_state", "fidelity", "probability"),
    DeviationReport: ("rho3", "delta", "fidelity", "purity", "branch"),
}
LAZY = {EnvironmentModel: (), TeleportRecord: ("conditional_state", "corrected_state"), DeviationReport: ()}


def read_lazy(value):
    """Reads every lazy field of a record or a list of records."""
    for item in value if isinstance(value, list) else [value]:
        for name in LAZY[type(item)]:
            getattr(item, name)
    return value


# (construction, Kets, DensityMatrix values, Gates, EnvironmentModel values it
# checks). A record's lazy fields are read, so each row counts every value it
# can check.
CONSTRUCTIONS = {
    "ket-list": (lambda: Ket([1, 0], ("1",)), 1, 0, 0, 0),
    "ket-ndarray": (lambda: Ket(np.array([0.6, 0.8]), ("1",)), 1, 0, 0, 0),
    "ket-rejected": (lambda: Ket([1, 1], ("1",)), 1, 0, 0, 0),
    "ket_from_amplitudes": (lambda: ket_from_amplitudes(0.6, 0.8j), 1, 0, 0, 0),
    "density-rows": (lambda: DensityMatrix([[1, 0], [0, 0]]), 0, 1, 0, 0),
    "density-ndarray": (lambda: DensityMatrix(np.eye(2) / 2), 0, 1, 0, 0),
    "density-rejected": (lambda: DensityMatrix([[1, 0], [0, 1]]), 0, 1, 0, 0),
    "gate": (lambda: Gate("X"), 0, 0, 1, 0),
    "model-positional": (lambda: EnvironmentModel(0.5 + 0.2j, 0.9, 1.1), 0, 0, 0, 1),
    "model-keyword": (lambda: EnvironmentModel(c1=1.1, gamma=0.5 + 0.2j, c0=0.9), 0, 0, 0, 1),
    "model-rejected": (lambda: EnvironmentModel(1.5, 0.9, 1.1), 0, 0, 0, 1),
    "to_density": (lambda: to_density(PSI), 0, 1, 0, 0),
    "prepare_joint": (lambda: prepare_joint(PSI), 1, 0, 0, 0),
    "run_ideal": (lambda: read_lazy(run_ideal(PSI, 3)), 2, 0, 0, 0),
    "enumerate_branches": (lambda: read_lazy(enumerate_branches(PSI)), 8, 0, 0, 0),
    "apply_gate": (lambda: apply_gate(PSI, X, 0), 1, 0, 0, 0),
    "born_measure": (lambda: born_measure(prepare_joint(PSI), bell_basis(), (0, 1), seeded_stream(3)), 2, 0, 0, 0),
    # A report's rho3 is stored unchecked, so no hook runs for it.
    "direct_report": (lambda: direct_report(0.6, 0.8j, ENV), 0, 0, 0, 0),
    "reduced_state": (lambda: reduced_state(0.6, 0.8j, ENV), 0, 1, 0, 0),
    # The run's Kets are never built either: the report reads the delivered pair.
    "noisy_teleport": (lambda: noisy_teleport(PSI, ENV, 3), 0, 0, 0, 0),
    "evolve": (lambda: evolve(0.6, 0.8j, ENV), 3, 0, 0, 0),
}
HOOKED = (Ket, DensityMatrix, Gate, EnvironmentModel)


@pytest.fixture
def hook_counts(monkeypatch):
    """Checks per value class, counted the way perfbench's tracer wraps
    ``__post_init__``: a check that skipped the hook would leave the traced
    call counts at zero, and a store that ran it would count a check that
    never ran."""
    counts = {}
    for cls in HOOKED:
        def counted(*args, _cls=cls, _hook=cls.__post_init__, **kwargs):
            counts[_cls] = counts.get(_cls, 0) + 1
            return _hook(*args, **kwargs)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_each_construction_runs_the_traced_hook_once(hook_counts, name):
    build, *built = CONSTRUCTIONS[name]
    if name.endswith("-rejected"):
        with pytest.raises(ValueError):
            build()
    else:
        build()
    assert hook_counts == {cls: n for cls, n in zip(HOOKED, built) if n}


# The model, and one report or record from each function that returns them.
VALUES = {
    "EnvironmentModel": lambda: EnvironmentModel(0.5 + 0.2j, 0.9, 1.1),
    "run_ideal": lambda: run_ideal(PSI, 3),
    "enumerate_branches": lambda: enumerate_branches(PSI)[2],
    "direct_report": lambda: direct_report(0.6, 0.8j, ENV),
    "noisy_teleport": lambda: noisy_teleport(PSI, ENV, 3),
}
LAZY_READS = [(name, field) for name, build in VALUES.items() for field in LAZY[type(build())]]


@pytest.mark.parametrize("name, field", LAZY_READS, ids=[f"{n}.{f}" for n, f in LAZY_READS])
def test_a_lazy_field_is_built_once_on_first_read(hook_counts, name, field):
    value = VALUES[name]()
    assert hook_counts == {}
    first = getattr(value, field)
    assert hook_counts == {type(first): 1}
    assert getattr(value, field) is first
    assert hook_counts == {type(first): 1}


def bits(values) -> bytes:
    """The complex128 bytes of nested numbers: equal only if equal bit for bit,
    signed zeros included."""
    return np.array(values, dtype=np.complex128).tobytes()


def assert_stored_alike(built, checked):
    """``built`` (a value the package returns) stores what ``checked`` (built
    here from the entries it should hold) stores: the same labels, and entries
    that are all Python complexes with the same bits, signed zeros included."""
    if isinstance(built, Ket):
        assert built.labels == checked.labels
        entries, twins = built.entries, checked.entries
    else:
        entries, twins = built.rows[0] + built.rows[1], checked.rows[0] + checked.rows[1]
    assert [type(z) for z in entries] == [complex] * len(twins)
    assert bits(entries) == bits(twins)


def corrected_pair(record):
    """The record's conditional pair after its outcome's gate in the public
    ``CORRECTIONS`` table."""
    (g00, g01), (g10, g11) = CORRECTIONS[record.outcome].rows
    v0, v1 = record._conditional
    return g00 * v0 + g01 * v1, g10 * v0 + g11 * v1


@settings(max_examples=300, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps, st.integers(0, 2**64))
@example(ab=(0.6, 0.8j), c0=0.9, c1=1.1, gamma=1 + OVERLAP_TOL, seed=0)
@example(ab=(SQRT_HALF, -SQRT_HALF), c0=1, c1=1, gamma=complex(0, -1 - OVERLAP_TOL), seed=1)
@example(ab=(complex(-0.0, 0.6), complex(0.8, -0.0)), c0=1e200, c1=1e-200j, gamma=-1 - OVERLAP_TOL, seed=2)
@example(ab=(1, 1e-160), c0=1e-140, c1=1, gamma=0.5j, seed=3)
@example(ab=(1, 1e-300), c0=1.7e308, c1=1.7e308j, gamma=0.3, seed=4)
@example(ab=(0.6, 0.8), c0=1 + 1j, c1=(1 + 1j) * (1 + 1e-15), gamma=1 - 1e-14, seed=5)
@example(ab=(1, 0), c0=1e-150, c1=0, gamma=0, seed=6)
@example(ab=(NEAR_DEGENERATE, 1), c0=1, c1=NEAR_DEGENERATE, gamma=1, seed=7)
@example(ab=(NEAR_DEGENERATE, 1), c0=1, c1=NEAR_DEGENERATE * 1j, gamma=-0.6j, seed=8)
def test_lazy_fields_equal_eager_construction_bit_for_bit(ab, c0, c1, gamma, seed):
    # A record's Kets are built on first read, and a report's rho3 is stored
    # unchecked. Each value the package returns equals the public constructor
    # applied to the entries the kernel or the protocol computes, bit for bit.
    a, b = ab
    psi = ket_from_amplitudes(a, b)
    assert_stored_alike(psi, Ket(normalized_amplitudes(a, b), ("1",)))
    assert_stored_alike(to_density(psi), DensityMatrix(_qubit_rows(*_pure_density(*psi.entries))))
    records = [run_ideal(psi, seed), *enumerate_branches(psi)]
    for r in records:
        assert_stored_alike(r.conditional_state, Ket(r._conditional, ("3",)))
        assert_stored_alike(r.corrected_state, Ket(corrected_pair(r), ("3",)))
    try:
        rows = closed_form(a, b, c0, c1, gamma).rows()
    except DegenerateModelError:  # also where c0 = c1 = 0, which the model rejects
        assume(False)
    env = EnvironmentModel(gamma, c0, c1)
    for rho3 in (reduced_state(a, b, env), direct_report(a, b, env).rho3):
        assert_stored_alike(rho3, DensityMatrix(rows))
    record, report = records[0], noisy_teleport(psi, env, seed)
    assert report.branch is record.outcome
    rows = closed_form(*delivered_pair(psi), c0, c1, gamma).rows()
    assert_stored_alike(report.rho3, DensityMatrix(rows))


@settings(max_examples=300, deadline=None)
@given(qubits())
@example(ab=(1, 0))
@example(ab=(complex(-0.0, 0.6), complex(0.8, -0.0)))
@example(ab=(1, 1e-160))
@example(ab=(1, 1e-300))
def test_every_branch_delivers_one_fidelity_bit_for_bit(ab):
    # Each correction maps its branch's pair to (p, q) or (-p, -q), so the
    # four records share one fidelity: |<psi|d>|^2 on each record's own
    # corrected pair d, bit for bit.
    psi = ket_from_amplitudes(*ab)
    a, b = psi.entries
    records = enumerate_branches(psi)
    for record in records:
        d0, d1 = corrected_pair(record)
        assert record.fidelity is records[0].fidelity
        assert record.fidelity.hex() == (abs(a.conjugate() * d0 + b.conjugate() * d1) ** 2).hex()


# One seed per outcome: each seed and the index of the outcome it draws.
_ONE_SEED_PER_OUTCOME = {0: 0, 4: 1, 2: 2, 5: 3}


@settings(max_examples=200, deadline=None)
@given(qubits(), coefficients, coefficients, overlaps)
@example(ab=(1, 0), c0=1, c1=1, gamma=0.5)
@example(ab=(complex(-0.0, 0.6), complex(0.8, -0.0)), c0=1e200, c1=1e-200j, gamma=-1 - OVERLAP_TOL)
@example(ab=(1, 1e-160), c0=1e-140, c1=1, gamma=0.5j)
@example(ab=(1, 1e-300), c0=1.7e308, c1=1.7e308j, gamma=0.3)
@example(ab=(NEAR_DEGENERATE, 1), c0=1, c1=NEAR_DEGENERATE * 1j, gamma=-0.6j)
def test_a_noisy_report_is_the_same_for_every_outcome(ab, c0, c1, gamma):
    # Every outcome's correction delivers (p, q) up to sign, so the report,
    # signed zeros included, does not depend on the outcome drawn.
    psi = ket_from_amplitudes(*ab)
    try:
        env = EnvironmentModel(gamma, c0, c1)
        reports = {seed: noisy_teleport(psi, env, seed) for seed in _ONE_SEED_PER_OUTCOME}
    except DegenerateModelError:
        assume(False)
    first = reports[0]
    for seed, report in reports.items():
        assert report.branch is OUTCOME_ORDER[_ONE_SEED_PER_OUTCOME[seed]]
        assert [report.delta.hex(), report.fidelity.hex(), report.purity.hex()] == [
            first.delta.hex(), first.fidelity.hex(), first.purity.hex()]
        assert bits(report.rho3.rows) == bits(first.rho3.rows)


def test_the_near_degenerate_example_is_computed():
    form = closed_form(NEAR_DEGENERATE, 1, 1, NEAR_DEGENERATE, 1)
    assert NEAR_DEGENERATE**2 < sys.float_info.min
    assert DEGENERATE_TOL < math.sqrt(2 * NEAR_DEGENERATE**2) < 1.2 * DEGENERATE_TOL
    assert form.rho00 == pytest.approx(0.5, abs=1e-15) and form.rho11 == pytest.approx(0.5, abs=1e-15)


# Calls of a result class: with no arguments, with a record's fields by
# position, and with a report's by keyword.
CALLERS = {
    "none": ((), {}),
    "positional": ((BellOutcome.PSI_MINUS, (0.6, 0.8j), (0.6, 0.8j), 1.0, 0.25), {}),
    "keyword": ((), {"rho3": DensityMatrix([[1, 0], [0, 0]]), "delta": 0.0, "fidelity": 1.0, "purity": 1.0}),
}


@pytest.mark.parametrize("cls", [TeleportRecord, DeviationReport], ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("call", CALLERS)
def test_results_are_built_only_by_the_package(hook_counts, cls, call):
    args, kwargs = CALLERS[call]
    with pytest.raises(TypeError) as excinfo:
        cls(*args, **kwargs)
    assert str(excinfo.value) == f"{cls.__name__} is built by the package, not by a caller"
    assert hook_counts == {}


@pytest.mark.parametrize("name", VALUES)
def test_reports_and_records_keep_the_frozen_dataclass_contract(name):
    value = VALUES[name]()
    public = [attr for attr in dir(value) if not attr.startswith("_")]
    assert set(FIELDS[type(value)]) <= set(public)
    for _ in range(2):  # the lazy names before their first read, then after
        for attr in public:
            with pytest.raises(FrozenInstanceError):
                setattr(value, attr, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, attr)
        read_lazy(value)
    fields = ", ".join(f"{field}={getattr(value, field)!r}" for field in FIELDS[type(value)])
    assert repr(value) == f"{type(value).__name__}({fields})"
    twin = VALUES[name]()
    if type(value) is EnvironmentModel:  # eq=True: equal and hashed by its fields
        key = tuple(getattr(value, field) for field in FIELDS[EnvironmentModel])
        assert value == twin and value is not twin and hash(value) == hash(twin) == hash(key)
    else:  # eq=False: equality is identity
        assert value == value and value != twin


def test_environment_model_is_a_value_of_its_three_complexes():
    positional = EnvironmentModel(0.5 + 0.2j, 0.9, 1.1)
    keyword = EnvironmentModel(c1=1.1, gamma=0.5 + 0.2j, c0=0.9)
    mixed = EnvironmentModel(0.5 + 0.2j, c1=np.float64(1.1), c0=0.9 + 0j)
    assert positional == keyword == mixed
    assert len({positional, keyword, mixed}) == 1
    for model in (positional, keyword, mixed):
        assert (model.gamma, model.c0, model.c1) == (0.5 + 0.2j, 0.9 + 0j, 1.1 + 0j)
        assert {type(model.gamma), type(model.c0), type(model.c1)} == {complex}
    assert positional != EnvironmentModel(0.5 + 0.2j, 0.9, 1.2)
    assert positional != EnvironmentModel(0.5 - 0.2j, 0.9, 1.1)
    # Another type is never equal, even one holding the same three numbers.
    assert positional != (0.5 + 0.2j, 0.9 + 0j, 1.1 + 0j)
    assert positional.__eq__((0.5 + 0.2j, 0.9, 1.1)) is NotImplemented
    # Fields compare with ==, so a zero's sign does not split two models.
    assert EnvironmentModel(0.0, 1, -0.0) == EnvironmentModel(-0.0, 1, 0.0)
    assert hash(EnvironmentModel(0.0, 1, -0.0)) == hash(EnvironmentModel(-0.0, 1, 0.0))
    with pytest.raises(TypeError):
        EnvironmentModel(0.5, 0.9)
    with pytest.raises(TypeError):
        EnvironmentModel(0.5, 0.9, 1.1, gamma=0.5)


# Every argument kind at every entry point that reads it, each by qcore's one
# rule for its kind: a one-qubit ket (``_qubit``), a state (``_density_rows``)
# and a 2x2 matrix (``_matrix_entries``). Each kind has one exception class
# and one message; every other argument of a row is valid.
MIXED = DensityMatrix(np.eye(2) / 2)
QUBIT_ENTRY_POINTS = {
    "to_density": to_density,
    "fidelity": lambda psi: fidelity(psi, MIXED),
    "run_ideal": lambda psi: run_ideal(psi, 0),
    "enumerate_branches": enumerate_branches,
    "noisy_teleport": lambda psi: noisy_teleport(psi, EnvironmentModel(0.5, 1, 1), 0),
    "prepare_joint": prepare_joint,
}
STATE_ENTRY_POINTS = {"fidelity": lambda rho: fidelity(ket_from_amplitudes(1, 0), rho), "purity": purity}
# Entry point -> (call, the name its messages give the matrix).
MATRIX_ENTRY_POINTS = {
    "DensityMatrix": (DensityMatrix, "density matrix"),
    "deviation-rho3": (lambda rho3: deviation(rho3, MIXED), "rho3"),
    "deviation-rho1": (lambda rho1: deviation(MIXED, rho1), "rho1"),
}
ARGUMENT_KINDS = {
    **{f"{name}-tuple": (call, (SQRT_HALF, SQRT_HALF), (TypeError, "psi must be a Ket, not tuple"))
       for name, call in QUBIT_ENTRY_POINTS.items()},
    **{f"{name}-two-qubit-ket": (call, Ket((0.5, 0.5, 0.5, 0.5), ("1", "2")),
                                 (ValueError, "psi must be a single-qubit Ket, got dimension 4"))
       for name, call in QUBIT_ENTRY_POINTS.items()},
    **{f"{name}-{kind}": (call, value, (TypeError, f"rho must be a DensityMatrix, not {kind}"))
       for name, call in STATE_ENTRY_POINTS.items()
       for kind, value in (("ndarray", np.eye(2) / 2), ("list", [[0.5, 0], [0, 0.5]]))},
    **{f"{name}-4x4": (call, np.eye(4) / 4, (ValueError, f"{label} must be 2x2, got shape (4, 4)"))
       for name, (call, label) in MATRIX_ENTRY_POINTS.items()},
    **{f"{name}-non-finite": (call, np.array([[np.nan, 0], [0, 1]]),
                              (ValueError, f"{label} contains non-finite entries"))
       for name, (call, label) in MATRIX_ENTRY_POINTS.items()},
}


@pytest.mark.parametrize("call, argument, expected", ARGUMENT_KINDS.values(), ids=ARGUMENT_KINDS)
def test_each_argument_kind_is_read_by_one_rule(call, argument, expected):
    with pytest.raises(Exception) as err:
        call(argument)
    assert (type(err.value), str(err.value)) == expected


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


def test_unchecked_kernels_are_not_exported():
    # They check neither gamma nor (c0, c1): EnvironmentModel (one point) and
    # SweepConfig.validate (a batch) are the checked ways in.
    namespace = {}
    exec("from teleportsim import *", namespace)
    for name in ("ClosedForm", "closed_form", "printed_deviation"):
        assert name not in teleportsim.__all__
        assert name not in namespace
        assert hasattr(teleportsim.envmodel, name)


def test_no_name_is_exported_by_two_modules():
    # The package's __all__ is its modules' lists joined, so a name in two of
    # them would appear in it twice.
    assert len(teleportsim.__all__) == len(set(teleportsim.__all__))


def own_public_names(module):
    """The module's top-level def, class and assigned names, tuple targets
    such as ``I, X, Z, ZX`` included, without a leading underscore."""
    def assigned(target):
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from assigned(element)

    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(assigned(target))
        elif isinstance(node, ast.AnnAssign):
            names.update(assigned(node.target))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("name", ["qcore", "teleport", "envmodel"])
def test_readme_lists_each_public_name_left_out_of_all(name):
    # README's by-path list: one bullet per module, naming in backticks each
    # public name the package does not export.
    module = importlib.import_module(f"teleportsim.{name}")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"^- `teleportsim\.{name}`:(.*?)\n(?! )", readme, re.MULTILINE | re.DOTALL)
    assert match, f"README.md has no by-path bullet for teleportsim.{name}"
    listed = set(re.findall(r"`([A-Za-z_]\w*)`", match.group(1)))
    assert listed == own_public_names(module) - set(module.__all__)


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


def _readme_range_holds(dest, kind, text):
    """Whether the CLI's rule accepts exactly the range README's options
    table gives for ``dest``: ``finite``, ``[low, high]``, ``integer in [low,
    high]`` or ``integer >= low``."""
    def accepts(value):
        try:
            _check_numbers({dest: value})
        except UsageError:
            return False
        return True

    numbers = [2 ** int(n[2:]) if n.startswith("2^") else int(n) for n in re.findall(r"2\^\d+|\d+", text)]
    if text == "finite":
        return kind is float and accepts(-1e308) and accepts(1e308) and not accepts(math.inf)
    if kind is int:
        low, *high = numbers
        ceiling = accepts(high[0]) and not accepts(high[0] + 1) if high else accepts(2**200)
        return accepts(low) and not accepts(low - 1) and ceiling
    low, high = numbers
    return (accepts(float(low)) and accepts(float(high)) and not accepts(math.nextafter(low, -math.inf))
            and not accepts(math.nextafter(high, math.inf)))


def test_readme_options_table_matches_the_parser():
    # README's CLI options table: each flag's config key, default, range and
    # subcommands, as the parser, SweepConfig and the CLI's rule have them.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(--[\w-]+)` \| (.*?) \| (.*?) \| (.*?) \| (.*?) \|$", readme, re.MULTILINE)
    subcommands = build_parser().subcommands
    declared = {flag for p in subcommands.values() for flag in p._option_string_actions if flag.startswith("--")}
    assert sorted(row[0] for row in rows) == sorted(declared - {"--help"})
    for flag, key, default, bounds, commands in rows:
        takers = set(re.findall(r"`([\w-]+)`", commands))
        assert takers == {name for name, p in subcommands.items() if flag in p._option_string_actions}, flag
        actions = {name: subcommands[name]._option_string_actions[flag] for name in takers}
        (dest,) = {action.dest for action in actions.values()}
        (kind,) = {action.type for action in actions.values()}
        sweep_key = dest if "sweep" in takers and flag != "--config" else None
        assert key == (f"`{sweep_key}`" if sweep_key else "-"), flag
        value = {"`1/sqrt(2)`": SQRT_HALF, "none": None}.get(default, default.strip("`"))
        for name, action in actions.items():
            given = getattr(SweepConfig(), sweep_key) if name == "sweep" and sweep_key else action.default
            assert given == (kind(value) if value is not None else None), (flag, name)
        if kind is not str:
            assert _readme_range_holds(dest, kind, bounds), flag


PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_probe(x):
    assert x < 10


def test_after_the_probe():
    pass
"""


@pytest.mark.parametrize("ci", [None, "true"], ids=["local", "ci-profile"])
def test_a_failing_property_shows_its_example_and_the_session_goes_on(tmp_path, ci):
    # Under pyproject.toml's filterwarnings, a warning raised while Hypothesis
    # saves the example must not abort the session (exit 3, INTERNALERROR).
    # CI=true loads Hypothesis's derandomized "ci" profile, as on CI.
    env = {k: v for k, v in os.environ.items() if k != "CI"}
    if ci is not None:
        env["CI"] = ci
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_probe(" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
