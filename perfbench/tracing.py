"""Spans around calls into teleportsim's public functions, recorded from
outside the package.

``Tracer.install`` replaces each target function with a wrapper in every
loaded ``teleportsim`` module that binds it (so ``cli.reduced_state`` and
``envmodel.reduced_state`` are both traced), and wraps ``__post_init__`` of
the validated value classes. Each call records a span: name, start, end and
the enclosing span. Spans stay in memory in flat arrays; ``write`` saves them
when the run ends and ``layer_stats`` derives self time and call counts.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# (module, attribute); the layer metrics are named "<module>.<attribute>".
# Classes are traced through __post_init__, their validation step.
TARGETS = (
    ("cli", "main"),
    ("cli", "load_config"),
    ("cli", "render_sweep_csv"),
    ("cli", "build_parser"),
    ("envmodel", "EnvironmentModel"),
    ("envmodel", "embed_environment"),
    ("envmodel", "evolve"),
    ("envmodel", "reduced_state"),
    ("envmodel", "reduced_state_paper_literal"),
    ("envmodel", "deviation"),
    ("envmodel", "deviation_closed_form_paper"),
    ("envmodel", "direct_report"),
    ("envmodel", "noisy_teleport"),
    ("qcore", "Ket"),
    ("qcore", "DensityMatrix"),
    ("qcore", "ket_from_amplitudes"),
    ("qcore", "to_density"),
    ("qcore", "born_measure"),
    ("qcore", "seeded_stream"),
    ("qcore", "apply_gate"),
    ("qcore", "fidelity"),
    ("qcore", "purity"),
    ("teleport", "prepare_joint"),
    ("teleport", "run_ideal"),
    ("teleport", "enumerate_branches"),
    ("linalg", "tensor_product"),
    ("linalg", "partial_trace"),
    ("linalg", "frobenius_distance"),
    ("linalg", "eig2_hermitian"),
)
MODULES = tuple(dict.fromkeys(mod for mod, _ in TARGETS))
OP = "bench.op"


class Tracer:
    """In-memory span log; index i of each array describes span i."""

    def __init__(self):
        self.names: list[str] = [OP] + [f"{mod}.{attr}" for mod, attr in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # op(fn, *args) calls fn(*args) inside a root span for one benchmark operation.
        self.op = self.wrap(0, lambda fn, *args: fn(*args))

    def wrap(self, name_id: int, fn):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "teleportsim" or n.startswith("teleportsim.")}
        for name_id, (mod, attr) in enumerate(TARGETS, start=1):
            orig = getattr(modules[f"teleportsim.{mod}"], attr)
            if isinstance(orig, type):
                self._restore.append((orig, "__post_init__", orig.__post_init__))
                setattr(orig, "__post_init__", self.wrap(name_id, orig.__post_init__))
                continue
            traced = self.wrap(name_id, orig)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, key, orig))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def to_dict(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(), "parent": self.parent.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist()}

    def extend(self, spans: dict) -> None:
        """Append another process's spans (same name table), re-basing parents."""
        base = len(self.start)
        self.name.extend(spans["name"])
        self.parent.extend(p + base if p >= 0 else -1 for p in spans["parent"])
        self.start.extend(spans["start"])
        self.end.extend(spans["end"])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)


def layer_stats(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds, self seconds.
    Self time is a span's duration minus the durations of its direct children."""
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    stats = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in tracer.names}
    for i, name_id in enumerate(tracer.name):
        s = stats[tracer.names[name_id]]
        s["calls"] += 1
        s["total"] += dur[i]
        s["self"] += dur[i] - child[i]
    return stats


def sweep_io_seconds(tracer: Tracer) -> list[float]:
    """For each traced ``cli.main`` call that rendered a sweep: its duration
    minus its load_config and render_sweep_csv children."""
    ids = {name: i for i, name in enumerate(tracer.names)}
    main_id, cfg_id, render_id = ids["cli.main"], ids["cli.load_config"], ids["cli.render_sweep_csv"]
    io: dict[int, float] = {}
    rendered = set()
    for i, name_id in enumerate(tracer.name):
        if name_id == main_id:
            io[i] = tracer.end[i] - tracer.start[i]
        elif name_id in (cfg_id, render_id) and tracer.parent[i] in io:
            io[tracer.parent[i]] -= tracer.end[i] - tracer.start[i]
            if name_id == render_id:
                rendered.add(tracer.parent[i])
    return [io[i] for i in sorted(rendered)]
