"""The four workloads: seeded inputs, one operation, and its output checks.

Each workload owns a fixed list of operations, one round. The harness in
``run.py`` repeats whole rounds, so every run attempts the same operations in
the same proportions whatever its seed or length. ``execute`` runs one
operation against the package; ``check`` compares its output with the
independent reference and raises ``Mismatch`` on a wrong answer.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import reference as ref

INV_SQRT2 = 0.7071067811865476
CSV_HEADER = ("gamma_re,gamma_im,c0_re,c0_im,c1_re,c1_im,a_re,a_im,b_re,b_im,"
              "delta_canonical,delta_paper,fidelity,purity")
OUTCOMES = ("PHI_PLUS", "PHI_MINUS", "PSI_PLUS", "PSI_MINUS")
OUTCOME_BITS = ("00", "10", "01", "11")
CHILD = Path(__file__).resolve().parent / "child.py"


def child_env(root: Path, tmp: Path) -> dict:
    """Environment for a child Python: the checkout's package, temp files in tmp."""
    return dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp))


class Mismatch(Exception):
    """The package returned a wrong answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Op:
    kind: str
    args: dict
    points: int
    key: int = 0
    known_fault: bool = False


def rand_complex(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi))


def rand_state(rng: random.Random) -> tuple[complex, complex]:
    theta = rng.uniform(0.0, math.pi / 2)
    return (cmath.rect(math.cos(theta), rng.uniform(0.0, 2 * math.pi)),
            cmath.rect(math.sin(theta), rng.uniform(0.0, 2 * math.pi)))


def check_point(rep, a, b, c0, c1, gamma, fidelity_identity: float | None = None) -> None:
    """A DeviationReport against the reference, plus the range bounds."""
    want = ref.evaluate(a, b, c0, c1, gamma, printed=False)
    mat = rep.rho3.mat.tolist()
    expect(ref.matrices_close(mat, want.rho3), f"rho3 {mat} != {want.rho3}")
    expect(ref.close(rep.delta, want.delta), f"delta {rep.delta} != {want.delta}")
    expect(ref.close(rep.fidelity, want.fidelity), f"fidelity {rep.fidelity} != {want.fidelity}")
    expect(ref.close(rep.purity, want.purity), f"purity {rep.purity} != {want.purity}")
    expect(-ref.TOL <= rep.fidelity <= 1 + ref.TOL, f"fidelity {rep.fidelity} outside [0, 1]")
    expect(0.5 - ref.TOL <= rep.purity <= 1 + ref.TOL, f"purity {rep.purity} outside [1/2, 1]")
    if fidelity_identity is not None:
        expect(ref.close(rep.fidelity, fidelity_identity),
               f"fidelity {rep.fidelity} != 1 - 2|a|^2|b|^2(1 - s) = {fidelity_identity}")


def check_sweep_csv(text: str, cfg: dict) -> None:
    """Header, row count, gamma grid and every value of a sweep CSV."""
    lines = text.split("\n")
    steps = cfg["steps"]
    expect(lines[0] == CSV_HEADER, f"CSV header {lines[0]!r}")
    expect(len(lines) == steps + 2 and lines[-1] == "", f"CSV has {len(lines) - 2} rows, want {steps}")
    a, b = ref.normalize(complex(cfg["a_re"], cfg["a_im"]), complex(cfg["b_re"], cfg["b_im"]))
    c0, c1 = complex(cfg["c0_re"], cfg["c0_im"]), complex(cfg["c1_re"], cfg["c1_im"])
    phase = cmath.exp(1j * cfg["gamma_phase"])
    g0, g1 = cfg["gamma_start"], cfg["gamma_end"]
    for k in range(steps):
        row = [float(x) for x in lines[k + 1].split(",")]
        gamma = (g0 + (g1 - g0) * k / (steps - 1)) * phase
        want = ref.evaluate(a, b, c0, c1, gamma)
        got = (complex(row[0], row[1]), complex(row[2], row[3]), complex(row[4], row[5]),
               complex(row[6], row[7]), complex(row[8], row[9])) + tuple(row[10:])
        expected = (gamma, c0, c1, a, b, want.delta, want.delta_printed, want.fidelity, want.purity)
        if not all(ref.close(x, y) for x, y in zip(got, expected)):
            raise Mismatch(f"sweep row {k}: {got} != {expected}")
        expect(0.5 - ref.TOL <= row[13] <= 1 + ref.TOL and -ref.TOL <= row[12] <= 1 + ref.TOL,
               f"sweep row {k}: fidelity or purity out of range")


class Workload:
    name = ""
    warm_ops = 1
    in_process = True

    def __init__(self, root: Path, tmp: Path, seed: int):
        self.root, self.tmp = root, tmp
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []
        self.generate()
        for key, op in enumerate(self.ops):
            op.key = key

    def generate(self) -> None:
        raise NotImplementedError

    def execute(self, op: Op, tracer=None):
        raise NotImplementedError

    def check(self, op: Op, out) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run, after the last operation."""


class SweepGrid(Workload):
    """In-process ``teleportsim.cli.main(["sweep", ...])`` over seeded configs."""

    name = "sweep-grid"
    # Default-size sweeps: operations of ~15 ms repeat often enough in a run
    # for their fastest time to be steady; see SweepLarge for 10^4 rows.
    STEPS = (101, 101, 101, 101, 101)

    def generate(self) -> None:
        import teleportsim.cli as cli

        self.cli = cli
        self.digests: dict[int, str] = {}
        for i, steps in enumerate(self.STEPS):
            a, b = rand_complex(self.rng, 0.1, 2.0), rand_complex(self.rng, 0.1, 2.0)
            c0, c1 = rand_complex(self.rng, 0.2, 1.5), rand_complex(self.rng, 0.2, 1.5)
            start, end = (0.0, 1.0) if i == 0 else (self.rng.uniform(0.0, 0.5), self.rng.uniform(0.5, 1.0))
            cfg = {"a_re": a.real, "a_im": a.imag, "b_re": b.real, "b_im": b.imag,
                   "c0_re": c0.real, "c0_im": c0.imag, "c1_re": c1.real, "c1_im": c1.imag,
                   "gamma_start": start, "gamma_end": end, "steps": steps,
                   "gamma_phase": self.rng.uniform(0.0, 2 * math.pi), "seed": self.rng.randrange(2**32)}
            out = self.tmp / f"sweep-{i}.csv"
            if i % 2:
                # Config-file form: every key from the file, output path included.
                conf = self.tmp / f"sweep-{i}.conf"
                body = "".join(f"{k} = {v!r}\n" for k, v in cfg.items())
                conf.write_text(f"# seeded sweep config\n\n{body}output_path = {out}\n", encoding="utf-8")
                argv = ["sweep", "--config", str(conf)]
            else:
                argv = ["sweep"]
                for k, v in cfg.items():
                    argv.append(f"--{k.replace('_', '-')}={v!r}")
                argv += ["--out", str(out)]
            self.ops.append(Op("sweep", {"argv": argv, "cfg": cfg, "out": out}, points=steps))

    def execute(self, op: Op, tracer=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(op.args["argv"])
        return code, buf.getvalue()

    def check(self, op: Op, out) -> None:
        code, stdout = out
        path, steps = op.args["out"], op.points
        expect(code == 0, f"sweep exit code {code}")
        expect(stdout == f"wrote {steps} rows to {path}\n", f"sweep stdout {stdout!r}")
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if op.key in self.digests:
            expect(self.digests[op.key] == digest, f"rerun of sweep {op.key} is not byte-identical")
            return
        self.digests[op.key] = digest
        check_sweep_csv(data.decode("utf-8"), op.args["cfg"])


class SweepLarge(SweepGrid):
    """Sweeps from 101 to 10001 rows. Each long sweep repeats only a few times
    in a run, so its figures spread 25-40% run to run on a shared host; it is
    run on request and is not in BENCHMARK.json."""

    name = "sweep-large"
    STEPS = (101, 10001, 301, 1001, 3001)


# Fixed, seed-independent points whose (c0, c1) are scaled far from 1. The
# model is scale invariant in (c0, c1), so the right answer is the unscaled
# one; the package rejects them because of absolute norm thresholds and
# unnormalized (c0, c1) arithmetic in ``evolve``.
_FAULT_BASES = (
    (0.6, 0.8j, INV_SQRT2, INV_SQRT2, 0.5),
    (INV_SQRT2, 0.5 + 0.5j, 0.6 + 0.3j, -0.5j, 0.3 + 0.4j),
)
FAULT_POINTS = tuple((a, b, c0 * k, c1 * k, g) for k in (1e-170, 1e200) for a, b, c0, c1, g in _FAULT_BASES)


class PointQueries(Workload):
    """Single-point evaluations, four calls each, as ``deviation`` and
    ``paper-check`` make them."""

    name = "point-queries"
    ROUND = 400
    warm_ops = 20

    def generate(self) -> None:
        import teleportsim

        self.tp = teleportsim
        fault = iter(FAULT_POINTS)
        for i in range(self.ROUND):
            if i % 100 == 99:
                a, b, c0, c1, gamma = next(fault)
                self.ops.append(Op("point", {"a": a, "b": b, "c0": c0, "c1": c1, "gamma": gamma},
                                   points=1, known_fault=True))
                continue
            a, b = rand_state(self.rng)
            c0, c1 = rand_complex(self.rng, 0.2, 1.5), rand_complex(self.rng, 0.2, 1.5)
            identity = None
            if i % 10 == 0:
                # c0 = c1 and real gamma = s: the fidelity has a closed form.
                c1 = c0
                s = {0: 1.0, 50: 0.0}.get(i % 100, self.rng.uniform(0.0, 1.0))
                gamma = complex(s)
                identity = 1 - 2 * abs(a) ** 2 * abs(b) ** 2 * (1 - s)
            elif i % 10 == 5:
                gamma = cmath.exp(1j * self.rng.uniform(0.0, 2 * math.pi))
            else:
                gamma = rand_complex(self.rng, 0.0, 1.0)
            self.ops.append(Op("point", {"a": a, "b": b, "c0": c0, "c1": c1, "gamma": gamma,
                                         "identity": identity}, points=1))

    def execute(self, op: Op, tracer=None):
        tp, p = self.tp, op.args
        env = tp.EnvironmentModel(p["gamma"], p["c0"], p["c1"])
        return (tp.direct_report(p["a"], p["b"], env),
                tp.reduced_state_paper_literal(p["a"], p["b"], env),
                tp.deviation_closed_form_paper(p["a"], p["b"], env))

    def check(self, op: Op, out) -> None:
        rep, lit, delta_paper = out
        p = op.args
        check_point(rep, p["a"], p["b"], p["c0"], p["c1"], p["gamma"], p.get("identity"))
        expect(rep.branch is None, "direct_report carries a branch")
        if op.known_fault:
            return  # the printed form is not scale invariant; only the canonical answer is defined
        printed = ref.evaluate(p["a"], p["b"], p["c0"], p["c1"], p["gamma"])
        lit = lit.tolist()
        expect(ref.matrices_close(lit, printed.printed), f"printed form {lit} != {printed.printed}")
        expect(ref.close(delta_paper, printed.delta_printed),
               f"delta_paper {delta_paper} != {printed.delta_printed}")
        factors = ref.printed_from_canonical(rep.rho3.mat.tolist(), p["gamma"], printed.n)
        expect(ref.matrices_close(lit, factors), f"printed form {lit} != canonical x factors {factors}")


class ProtocolRuns(Workload):
    """``run_ideal`` over seeded states with distinct seeds; fixed shares of
    ``noisy_teleport`` and ``enumerate_branches``."""

    name = "protocol-runs"
    ROUND = 100
    warm_ops = 20

    def generate(self) -> None:
        import teleportsim

        self.tp = teleportsim
        self.next_seed = self.rng.getrandbits(62)
        self.counts = dict.fromkeys(OUTCOMES, 0)
        for i in range(self.ROUND):
            a, b = rand_state(self.rng)
            args = {"a": a, "b": b, "psi": teleportsim.ket_from_amplitudes(a, b)}
            slot = i % 20
            if slot < 14:
                self.ops.append(Op("ideal", args, points=1))
            elif slot < 17:
                args.update(c0=rand_complex(self.rng, 0.2, 1.5), c1=rand_complex(self.rng, 0.2, 1.5),
                            gamma=rand_complex(self.rng, 0.0, 1.0))
                args["env"] = teleportsim.EnvironmentModel(args["gamma"], args["c0"], args["c1"])
                self.ops.append(Op("noisy", args, points=1))
            else:
                self.ops.append(Op("branches", args, points=4))

    def execute(self, op: Op, tracer=None):
        p = op.args
        if op.kind == "branches":
            return self.tp.enumerate_branches(p["psi"])
        self.next_seed += 1
        if op.kind == "ideal":
            return self.tp.run_ideal(p["psi"], self.next_seed)
        return self.tp.noisy_teleport(p["psi"], p["env"], self.next_seed)

    def check(self, op: Op, out) -> None:
        p = op.args
        if op.kind == "noisy":
            check_point(out, p["a"], p["b"], p["c0"], p["c1"], p["gamma"])
            expect(out.branch is not None and out.branch.name in OUTCOMES, f"branch {out.branch}")
            return
        records = [out] if op.kind == "ideal" else out
        if op.kind == "branches":
            expect([r.outcome.name for r in records] == list(OUTCOMES), "branches out of order")
        for r in records:
            expect(ref.close(r.probability, 0.25), f"branch probability {r.probability}")
            expect(ref.close(r.fidelity, 1.0), f"branch fidelity {r.fidelity}")
            overlap = sum(x.conjugate() * y for x, y in zip((p["a"], p["b"]), r.corrected_state.amplitudes.tolist()))
            expect(ref.close(abs(overlap), 1.0), f"corrected state overlap {abs(overlap)}")
        if op.kind == "ideal":
            self.counts[out.outcome.name] += 1

    def finish(self) -> None:
        n = sum(self.counts.values())
        sigma = math.sqrt(n * 0.25 * 0.75)
        for name, count in self.counts.items():
            expect(abs(count - n / 4) <= 5 * sigma, f"{name} drawn {count} times of {n}")


class CliCold(Workload):
    """Fresh ``python -m teleportsim.cli`` processes, one at a time. Each
    process repeats about ten times in a run, which leaves its figures
    spreading ~17% run to run on a shared host; it is run on request and is
    not in BENCHMARK.json."""

    name = "cli-cold"
    in_process = False
    SHOTS = 1000

    def generate(self) -> None:
        self.env = child_env(self.root, self.tmp)
        self.first: dict[int, tuple] = {}
        for command in ("deviation", "paper-check"):
            a, b = rand_complex(self.rng, 0.1, 2.0), rand_complex(self.rng, 0.1, 2.0)
            c0, c1 = rand_complex(self.rng, 0.2, 1.5), rand_complex(self.rng, 0.2, 1.5)
            g, phase = self.rng.uniform(0.0, 1.0), self.rng.uniform(0.0, 2 * math.pi)
            argv = [command]
            for flag, z in (("a", a), ("b", b), ("c0", c0), ("c1", c1)):
                argv += [f"--{flag}-re={z.real!r}", f"--{flag}-im={z.imag!r}"]
            argv += [f"--gamma={g!r}", f"--gamma-phase={phase!r}"]
            self.ops.append(Op(command, {"argv": argv, "a": a, "b": b, "c0": c0, "c1": c1,
                                         "gamma": g * cmath.exp(1j * phase)}, points=1))
        out = self.tmp / "cold-sweep.csv"
        self.ops.append(Op("sweep", {"argv": ["sweep", "--out", str(out)], "out": out}, points=101))
        a, b = rand_complex(self.rng, 0.1, 2.0), rand_complex(self.rng, 0.1, 2.0)
        argv = ["teleport", f"--shots={self.SHOTS}", f"--seed={self.rng.randrange(2**32)}",
                f"--a-re={a.real!r}", f"--a-im={a.imag!r}", f"--b-re={b.real!r}", f"--b-im={b.imag!r}"]
        self.ops.append(Op("teleport", {"argv": argv}, points=4))

    def command(self, op: Op, mode: str | None) -> list[str]:
        if mode is None:
            return [sys.executable, "-m", "teleportsim.cli", *op.args["argv"]]
        return [sys.executable, str(CHILD), mode, str(self.tmp / "child.json"), *op.args["argv"]]

    def spawn(self, op: Op, mode: str | None = None):
        proc = subprocess.run(self.command(op, mode), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        csv = op.args["out"].read_bytes() if op.kind == "sweep" and proc.returncode == 0 else None
        return proc.returncode, proc.stdout, proc.stderr, csv

    def execute(self, op: Op, tracer=None):
        if tracer is None:
            return self.spawn(op)
        out = self.spawn(op, "trace")
        with open(self.tmp / "child.json", encoding="utf-8") as handle:
            tracer.extend(json.load(handle))
        return out

    def peak_alloc(self, op: Op):
        """Run op in a child that traces Python allocations from start-up;
        returns (output, peak bytes)."""
        out = self.spawn(op, "alloc")
        with open(self.tmp / "child.json", encoding="utf-8") as handle:
            return out, json.load(handle)["peak_bytes"]

    def check(self, op: Op, out) -> None:
        code, stdout, stderr, csv = out
        expect(code == 0, f"{op.kind} exited {code}: {stderr.strip()}")
        if op.key in self.first:
            expect(self.first[op.key] == (stdout, csv), f"rerun of {op.kind} is not byte-identical")
            return
        self.first[op.key] = (stdout, csv)
        getattr(self, f"_check_{op.kind.replace('-', '_')}")(op, stdout, csv)

    def _report(self, op: Op, stdout: str):
        scalars, matrices, header = {}, {}, None
        for line in stdout.splitlines():
            text = line.strip()
            if text.startswith("["):
                matrices.setdefault(header, []).append([complex(z) for z in text.strip("[] ").split()])
            elif text.endswith(":"):
                header = text[:-1]
            else:
                key, value = text.split()
                scalars[key] = float(value)
        p = op.args
        a, b = ref.normalize(p["a"], p["b"])
        want = ref.evaluate(a, b, p["c0"], p["c1"], p["gamma"])
        tol = ref.CLI_TOL
        expect(ref.matrices_close(matrices["rho3 (canonical partial trace)"], want.rho3, tol), "canonical rho3")
        expect(ref.matrices_close(matrices["rho3 (printed closed form)"], want.printed, tol), "printed rho3")
        expect(ref.close(scalars["delta_canonical"], want.delta, tol), "delta_canonical")
        expect(ref.close(scalars["delta_paper"], want.delta_printed, tol), "delta_paper")
        return scalars, matrices, want

    def _check_deviation(self, op: Op, stdout: str, csv) -> None:
        scalars, _, want = self._report(op, stdout)
        expect(ref.close(scalars["fidelity"], want.fidelity, ref.CLI_TOL), "fidelity")
        expect(ref.close(scalars["purity"], want.purity, ref.CLI_TOL), "purity")

    def _check_paper_check(self, op: Op, stdout: str, csv) -> None:
        scalars, matrices, want = self._report(op, stdout)
        tol = ref.CLI_TOL
        expect(ref.close(scalars["trace_canonical"], 1.0, tol), "trace_canonical")
        expect(ref.close(scalars["trace_paper"], want.printed_trace, tol), "trace_paper")
        diff = [[want.printed[i][j] - want.rho3[i][j] for j in range(2)] for i in range(2)]
        expect(ref.matrices_close(matrices["entrywise difference (printed - canonical)"], diff, tol), "difference")
        expect(ref.close(scalars["max_abs_difference"], max(abs(z) for row in diff for z in row), tol),
               "max_abs_difference")

    def _check_sweep(self, op: Op, stdout: str, csv) -> None:
        expect(stdout == f"wrote 101 rows to {op.args['out']}\n", f"sweep stdout {stdout!r}")
        default = {"a_re": INV_SQRT2, "a_im": 0.0, "b_re": INV_SQRT2, "b_im": 0.0,
                   "c0_re": INV_SQRT2, "c0_im": 0.0, "c1_re": INV_SQRT2, "c1_im": 0.0,
                   "gamma_start": 0.0, "gamma_end": 1.0, "steps": 101, "gamma_phase": 0.0}
        check_sweep_csv(csv.decode("utf-8"), default)

    def _check_teleport(self, op: Op, stdout: str, csv) -> None:
        lines = stdout.splitlines()
        expect(len(lines) == 5 and lines[4] == "mean fidelity 1.000000", f"teleport output {stdout!r}")
        counts = []
        for line, name, bits in zip(lines, OUTCOMES, OUTCOME_BITS):
            head, _, count = line.rpartition(": ")
            expect(head == f"outcome {name} (bits {bits})", f"teleport line {line!r}")
            counts.append(int(count))
        sigma = math.sqrt(self.SHOTS * 0.25 * 0.75)
        expect(sum(counts) == self.SHOTS and all(abs(c - self.SHOTS / 4) <= 5 * sigma for c in counts),
               f"teleport counts {counts}")


WORKLOADS = {w.name: w for w in (SweepGrid, PointQueries, ProtocolRuns, CliCold, SweepLarge)}
