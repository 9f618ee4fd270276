"""Mutation probe: does the test suite notice a one-token change to the package?

Each mutant changes one operator or constant, drops one ``not`` or deletes
one statement, in one function of ``src/teleportsim``. The probe writes it
into a copy of the files the suite reads (``COPIED``) and runs pytest there
with ``-x``: a mutant that fails a test is killed, and one that passes every
test survived.
A survivor is either a gap in the tests or an equivalent mutant, one that no
input can tell apart; CHANGES.md records each run's survivors and the reason
each equivalent one cannot be told apart.

The operators:

- ``+``/``-`` and ``*``/``/`` swaps, in expressions and augmented assignments
  (``Add/Sub`` is ``+`` made ``-``);
- ``<``/``<=``, ``>``/``>=`` and ``==``/``!=`` flips (``Gt/GtE`` is ``>`` made
  ``>=``);
- ``nudge``: a nonzero float constant times 1 + 2^-40;
- ``drop-neg``: a dropped unary minus;
- ``And/Or`` and ``Or/And``: a boolean operation's ``and`` made ``or`` or
  back, once per operation however many operands it has; ``Is/IsNot`` and
  ``IsNot/Is`` flips; ``drop-not``: a dropped ``not``;
- ``drop-stmt``: one statement, at any depth, replaced with ``pass`` (a
  compound statement goes with its whole block); docstrings and ``pass``
  itself are left alone.

Only the functions named in ``TARGETS`` are mutated: the kernels, the checks
and the boundaries. Before any mutant, the probe runs the suite once on the
sources as ``ast.unparse`` writes them, which drops their comments; it stops
if that control fails. Each run loads a pytest plugin (``ALARM_PLUGIN``)
that times every test call: in the control run it records the slowest, and
in a mutant's run it raises in any test that runs past the per-test limit,
four times that slowest call and at least 10 s, so a mutant that spins
fails its first hanging test within the limit. The whole-suite timeout
stays as the backstop. A full pass runs every mutant, several hundred of
each kind, for about two hours on 2 CPUs, so it is neither a test nor a CI
step; CI runs only ``--list``, which exits non-zero when a name in
``TARGETS`` is gone. It needs only the standard library, POSIX signals and
the test suite's own dependencies, and makes its copy under ``TMPDIR``.
From the repository root:

    python tools/mutation_probe.py --list               # every mutant's id
    python tools/mutation_probe.py                      # the full pass
    python tools/mutation_probe.py 'envmodel.deviation#*'
    python tools/mutation_probe.py ID -- tests/test_envmodel.py

An id is ``module.function#N:mutation``, the mutation N of that function in
source order, so an edit outside the function leaves its ids as they were.
One walk over each function's fields finds all of its mutants, and numbers
them in three sequences, each from 0 and listed in this order: operator and
constant changes, statement deletions (``#N:drop-stmt``), and the boolean
mutations (``And/Or``, ``Is/IsNot``, ``drop-not`` and their twins). The
later two kinds were numbered apart so that adding them moved no earlier
id; another kind, such as a returned constant, is one more branch of the
walk and one more sequence.
Positional arguments are ``fnmatch`` patterns over the ids; arguments after
``--`` go to pytest in place of the whole suite. The exit code is 0 if every
mutant run was killed, 1 if one survived and 2 if the control failed.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import functools
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "teleportsim"

# Module -> the qualified names of the functions whose bodies are mutated.
TARGETS = {
    "qcore": (
        "_seed", "_first_word", "_matrix_entries", "Ket.__post_init__", "_norm_error", "_check_normalized", "_qubit",
        "DensityMatrix.__post_init__", "_density_rows", "Projector.__post_init__", "normalized_amplitudes",
        "_pure_density", "_qubit_rows", "to_density", "born_measure", "_fidelity_of", "_purity_of", "fidelity",
        "purity",
    ),
    "envmodel": (
        "EnvironmentModel.__post_init__", "_unit_scaled", "_frobenius", "_delta",
        "closed_form", "embed_environment", "evolve", "_printed_entries", "reduced_state_paper_literal",
        "_state_rows", "deviation", "printed_deviation", "deviation_closed_form_paper", "noisy_teleport",
    ),
    "teleport": (
        "TeleportRecord._corrected", "_delivered", "_bell_branches", "_record", "_draw", "run_ideal",
        "enumerate_branches",
    ),
    "cli": ("_check_numbers", "_block_overlaps", "load_config", "_sweep_config", "cmd_sweep", "build_parser",
            "_Parser._get_values", "_read_exact", "_parse_args", "main"),
}

# The ids' sequences, each numbered from 0 and listed in this order; a kind
# of mutation added in a sequence of its own moves no recorded id.
OPERATOR, STATEMENT, BOOLEAN = range(3)
# Each swapped operator -> its replacement; those in BOOLEAN_OPS are boolean mutations.
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.Lt: ast.LtE,
         ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
         ast.And: ast.Or, ast.Or: ast.And, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
BOOLEAN_OPS = (ast.And, ast.Or, ast.Is, ast.IsNot)
NUDGE = 1 + 2.0**-40
# What the suite reads: the package, the tests, pytest's settings, and the
# README and tracer the API tests parse. Nothing else is copied.
COPIED = ("src", "tests", "pyproject.toml", "README.md", "perfbench/tracing.py")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
# The per-test time limit, as a pytest plugin the probe writes beside its
# copy with LIMIT (None in the control run) and the file that receives the
# slowest test call's seconds. The alarm raises a BaseException, which
# neither a test's own handlers nor Hypothesis's shrinker catch, so the test
# fails at once and -x ends the run.
ALARM_PLUGIN = """\
import signal
import time

import pytest

LIMIT = {limit!r}
SLOWEST = {slowest!r}
_slowest = 0.0


class TestTimeLimitExceeded(BaseException):
    pass


def _expired(signum, frame):
    raise TestTimeLimitExceeded(f"test call ran past the probe's {{LIMIT}} s limit")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    global _slowest
    if LIMIT is not None:
        signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, LIMIT)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _slowest = max(_slowest, time.monotonic() - start)


def pytest_sessionfinish(session):
    with open(SLOWEST, "w", encoding="utf-8") as handle:
        handle.write(repr(_slowest))
"""
ALARM = "mutation_probe_alarm"


def _functions(tree: ast.Module):
    """(qualified name, node) of each function at module or class level."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _sites(function: ast.FunctionDef):
    """(sequence, label, node, apply) for each mutation the function admits,
    found in one walk: each is a new value for one field of a node, or for
    one item of a list field, and ``apply()`` puts it there and returns an
    undo. ``node``, whose position orders the mutant, is the swapped
    operator's expression, the nudged constant, or the dropped statement or
    ``not``. A docstring and ``pass`` itself are never dropped."""
    docstring = function.body[0] if ast.get_docstring(function) is not None else None
    for parent in ast.walk(function):
        for field, value in ast.iter_fields(parent):
            if isinstance(value, list):
                slots, put = enumerate(value), functools.partial(_set_item, value)
            else:
                slots, put = [(field, value)], functools.partial(_set, parent)
            for key, old in slots:
                if type(old) in SWAPS:
                    new = SWAPS[type(old)]()
                    sequence = BOOLEAN if isinstance(old, BOOLEAN_OPS) else OPERATOR
                    label, node = f"{type(old).__name__}/{type(new).__name__}", parent
                elif isinstance(old, ast.USub):
                    sequence, label, node, new = OPERATOR, "drop-neg", parent, ast.UAdd()
                elif type(old) is float and old != 0.0:  # a Constant's value
                    sequence, label, node, new = OPERATOR, "nudge", parent, old * NUDGE
                elif isinstance(old, ast.stmt) and not isinstance(old, ast.Pass) and old is not docstring:
                    sequence, label, node, new = STATEMENT, "drop-stmt", old, ast.Pass()
                elif isinstance(old, ast.UnaryOp) and isinstance(old.op, ast.Not):
                    sequence, label, node, new = BOOLEAN, "drop-not", old, old.operand
                else:
                    continue
                yield sequence, label, node, functools.partial(put, key, new)


def _set(node, field, value):
    old = getattr(node, field)
    setattr(node, field, value)
    return lambda: setattr(node, field, old)


def _set_item(items, index, value):
    old = items[index]
    items[index] = value
    return lambda: items.__setitem__(index, old)


def _mutated(tree: ast.Module, apply) -> str:
    """The module's source with one mutation applied; the tree is restored."""
    undo = apply()
    source = ast.unparse(tree)
    undo()
    return source


def mutants():
    """(id, module, source) of every mutant: by function, then by sequence,
    then in source order, by the mutated node's first line and column, the
    outer node first, and a comparison's operators left to right.
    ``source()`` writes the mutated module only when a mutant runs, so
    listing the ids unparses nothing."""
    seen = set()
    for module, names in TARGETS.items():
        tree = ast.parse((ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        functions = dict(_functions(tree))
        missing = set(names) - set(functions)
        if missing:
            raise SystemExit(f"{module} has no {sorted(missing)}: update TARGETS")
        for name in names:
            sites = sorted(_sites(functions[name]), key=lambda s: (
                s[0], s[2].lineno, s[2].col_offset, -s[2].end_lineno, -s[2].end_col_offset))
            for _, sequence in itertools.groupby(sites, key=lambda s: s[0]):
                for number, (_, label, _, apply) in enumerate(sequence):
                    mutant_id = f"{module}.{name}#{number}:{label}"
                    assert mutant_id not in seen, mutant_id
                    seen.add(mutant_id)
                    yield mutant_id, module, functools.partial(_mutated, tree, apply)


def run_suite(workdir: Path, pytest_args, timeout: float | None) -> tuple[str, float]:
    """'passed', 'failed' or 'timeout', and the seconds it took. Hypothesis
    runs its derandomized ci profile, so a verdict does not depend on the
    draw, and no bytecode is written, so a rewritten module is never read
    from a stale cache. The alarm plugin is read from ``workdir``'s parent."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(workdir / "src"), str(workdir.parent))), CI="true",
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-p", ALARM, *pytest_args]
    start = time.monotonic()
    try:
        done = subprocess.run(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start
    return ("passed" if done.returncode == 0 else "failed"), time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("patterns", nargs="*", help="fnmatch patterns over mutant ids (default: all)")
    parser.add_argument("--list", action="store_true", help="print the selected ids and exit")
    argv = sys.argv[1:] if argv is None else argv
    pytest_args = []
    if "--" in argv:
        at = argv.index("--")
        argv, pytest_args = argv[:at], argv[at + 1:]
    args = parser.parse_args(argv)

    selected = [m for m in mutants()
                if not args.patterns or any(fnmatch.fnmatchcase(m[0], p) for p in args.patterns)]
    if args.list:
        print("\n".join(m[0] for m in selected))
        return 0
    if not selected:
        print("no mutant matches", file=sys.stderr)
        return 2

    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy = Path(tmp) / "repo"
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=IGNORED)
            else:
                (copy / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, copy / name)
        control = {module: ast.unparse(ast.parse((ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
                   for module in TARGETS}
        for module, source in control.items():
            (copy / PACKAGE / f"{module}.py").write_text(source, encoding="utf-8")
        plugin, slowest = Path(tmp) / f"{ALARM}.py", Path(tmp) / "slowest"
        plugin.write_text(ALARM_PLUGIN.format(limit=None, slowest=str(slowest)), encoding="utf-8")
        verdict, seconds = run_suite(copy, pytest_args, timeout=None)
        print(f"control: {verdict} in {seconds:.1f} s", flush=True)
        if verdict != "passed":
            return 2
        limit = max(10.0, 4 * float(slowest.read_text(encoding="utf-8")))
        print(f"per-test limit: {limit:.1f} s", flush=True)
        plugin.write_text(ALARM_PLUGIN.format(limit=limit, slowest=str(slowest)), encoding="utf-8")
        # The backstop: a mutant that runs five times as long as the whole
        # suite is stuck outside any test call.
        timeout = 5 * seconds + 30
        for mutant_id, module, source in selected:
            path = copy / PACKAGE / f"{module}.py"
            path.write_text(source(), encoding="utf-8")
            verdict, seconds = run_suite(copy, pytest_args, timeout)
            path.write_text(control[module], encoding="utf-8")
            if verdict == "passed":
                survivors.append((mutant_id, module))
            print(f"{'SURVIVED' if verdict == 'passed' else verdict:8} {seconds:6.1f} s  {mutant_id}", flush=True)

    ran = [module for _, module, _ in selected]
    lost = [module for _, module in survivors]
    print(f"{len(ran) - len(lost)} of {len(ran)} killed: "
          + ", ".join(f"{m} {ran.count(m) - lost.count(m)}/{ran.count(m)}" for m in TARGETS if m in ran))
    for mutant_id, _ in survivors:
        print(f"survivor: {mutant_id}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
