"""Command-line front end.

Subcommands: ``teleport`` (ideal-protocol shot runs), ``deviation``
(single-point report), ``sweep`` (deterministic CSV over the overlap range),
``paper-check`` (canonical vs printed reduced state, side by side).

Exit codes: 0 success, 2 usage/validation error (including the model's own
ValueError and a count above its 2**32 ceiling), 3 I/O error.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import math
import os
import re
import sys
from collections import namedtuple
from dataclasses import fields, make_dataclass

import numpy as np

from .envmodel import (
    EnvironmentModel,
    closed_form,
    deviation_closed_form_paper,
    direct_report,
    printed_deviation,
    reduced_state_paper_literal,
)
from .qcore import _SQRT_HALF, ket_from_amplitudes, normalized_amplitudes, seeded_stream
from .teleport import enumerate_branches

__all__ = ["SweepConfig", "load_config", "main", "CSV_FIELDS"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

CSV_FIELDS = (
    "gamma_re",
    "gamma_im",
    "c0_re",
    "c0_im",
    "c1_re",
    "c1_im",
    "a_re",
    "a_im",
    "b_re",
    "b_im",
    "delta_canonical",
    "delta_paper",
    "fidelity",
    "purity",
)


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 2."""


# One CLI option: its flag (``--gamma-phase`` for ``gamma_phase``) in each of its
# subcommands, and for ``sweep`` a config key and SweepConfig field too; one help
# text or one per subcommand; a range: an interval, or a minimum and a ceiling.
_Option = namedtuple("_Option", "name type default help commands low high", defaults=(None, None))
_ALL, _MODEL = ("teleport", "deviation", "paper-check", "sweep"), ("deviation", "paper-check", "sweep")
# The counts' ceiling. Both are streamed in fixed blocks, so it bounds a
# run's length, not its memory: 2**32 shots or rows take hours.
_COUNT_CEILING = 2**32

# Every option but sweep's --config and --out, in the order of the help pages.
_OPTIONS = (
    _Option("a_re", float, _SQRT_HALF, "Re(a)", _ALL),
    _Option("a_im", float, 0.0, "Im(a)", _ALL),
    _Option("b_re", float, _SQRT_HALF, "Re(b)", _ALL),
    _Option("b_im", float, 0.0, "Im(b)", _ALL),
    _Option("c0_re", float, _SQRT_HALF, "Re(c0)", _MODEL),
    _Option("c0_im", float, 0.0, "Im(c0)", _MODEL),
    _Option("c1_re", float, _SQRT_HALF, "Re(c1)", _MODEL),
    _Option("c1_im", float, 0.0, "Im(c1)", _MODEL),
    _Option("gamma", float, 1.0, "overlap magnitude", ("deviation", "paper-check"), 0.0, 1.0),
    _Option("gamma_start", float, 0.0, "first overlap magnitude", ("sweep",), 0.0, 1.0),
    _Option("gamma_end", float, 1.0, "last overlap magnitude", ("sweep",), 0.0, 1.0),
    _Option("steps", int, 101, "number of grid points (>= 2)", ("sweep",), 2, _COUNT_CEILING),
    _Option("gamma_phase", float, 0.0, "overlap phase (radians)", _MODEL),
    _Option("shots", int, 1000, "number of protocol runs", ("teleport",), 1, _COUNT_CEILING),
    _Option("seed", int, 0, {"teleport": "base seed", "sweep": "any integer >= 0, as for teleport; affects no output"},
            ("teleport", "sweep"), 0),
)
_BOUNDS = tuple((o.name, o.type, o.low, o.high) for o in _OPTIONS if o.low is not None)


def _check_numbers(values: dict) -> None:
    """The CLI's rule for the numbers it reads, as flags or config keys, with
    the ranges of ``_OPTIONS``: every float is finite; in table order, an
    overlap magnitude lies in its interval as given, before a phase makes it
    complex, and a count or seed is at least its minimum; then a count is at
    most its ceiling (a seed has none). Errors name the flag or key, the
    first in that order; a sweep flag that was not given (None) is skipped."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"{name} is not finite")
    for name, kind, low, high in _BOUNDS:
        value = values.get(name)
        if value is None:
            continue
        if kind is float and not low <= value <= high:
            raise UsageError(f"{name} must lie in [{low:g}, {high:g}], got {value}")
        if value < low:
            raise UsageError(f"{name} must be >= {low}, got {value}")
    for name, _, _, high in _BOUNDS:
        value = values.get(name)
        if value is not None and high is not None and value > high:
            raise UsageError(f"{name} must be <= {high}, got {value}")


class SweepConfig(make_dataclass("SweepConfig", [
    *((o.name, o.type, o.default) for o in _OPTIONS if "sweep" in o.commands), ("output_path", str, "sweep.csv"),
])):
    """One sweep run: state and coupling coefficients, overlap range, output.
    Its fields are the sweep rows of ``_OPTIONS``, in order, then the output
    path; each is also a config key."""

    a = property(lambda self: complex(self.a_re, self.a_im))
    b = property(lambda self: complex(self.b_re, self.b_im))
    c0 = property(lambda self: complex(self.c0_re, self.c0_im))
    c1 = property(lambda self: complex(self.c1_re, self.c1_im))

    def validate(self) -> None:
        """Check the numbers, the ranges and a non-empty output path,
        normalize (a, b) in place, and reject a degenerate model.

        The model's degeneracy does not depend on gamma, so ``closed_form``
        at one overlap applies its one rule to the whole sweep, before any
        output is opened."""
        _check_numbers(vars(self))
        if not self.output_path:
            raise UsageError("output_path must not be empty")
        a, b = normalized_amplitudes(self.a, self.b)
        self.a_re, self.a_im, self.b_re, self.b_im = a.real, a.imag, b.real, b.imag
        closed_form(a, b, self.c0, self.c1, 0.0)


_CONFIG_TYPES = {f.name: f.type for f in fields(SweepConfig)}
_COMMENT = re.compile(r"(?:^|\s)#")


def load_config(path: str) -> SweepConfig:
    """Parse a line-oriented ``key = value`` UTF-8 config file, with or without a BOM.

    Lines end at LF, CRLF or CR; a ``#`` at the start of a line or after
    whitespace starts a comment; blank lines are ignored. Keys are SweepConfig's
    fields (``_OPTIONS``' sweep rows, then ``output_path``), each read by its
    type; unknown keys, malformed numbers and non-UTF-8 bytes are hard errors
    naming the line. Command-line flags override the loaded values.
    """
    cfg = SweepConfig()
    with open(path, "rb", buffering=0) as handle:
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:  # no UTF-8 sequence holds a CR or LF byte, so ending lines first is exact
        lines = data.decode("utf-8").removeprefix("\ufeff").split("\n")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise UsageError(f"config is not UTF-8 (line {lineno})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise UsageError(f"expected 'key = value' (line {lineno})")
        if key not in _CONFIG_TYPES:
            raise UsageError(f"unknown key '{key}' (line {lineno})")
        try:
            setattr(cfg, key, _CONFIG_TYPES[key](value))
        except ValueError:  # only int and float raise it
            raise UsageError(
                f"malformed number for '{key}' (line {lineno}): {value!r}"
            ) from None
    return cfg


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"

def _fmt_matrix(rows) -> str:
    return "\n".join(
        "  [ " + "  ".join(_fmt_complex(z) for z in row) + " ]" for row in rows
    )


# Shots per draw in cmd_teleport: a block's float64 draws and their indices.
_SHOT_BLOCK = 2**16


def cmd_teleport(args) -> int:
    psi = ket_from_amplitudes(complex(args.a_re, args.a_im), complex(args.b_re, args.b_im))
    # The four branches are fixed by the input state, so sample the branch
    # index per shot instead of re-running the whole protocol each time. Each
    # has probability 1/4, so a draw u picks index int(4u): for the first
    # draw, the top two bits run_ideal reads from the same 64-bit word.
    # The draws are streamed in blocks of _SHOT_BLOCK: consecutive random(k)
    # calls continue one Philox stream, so the counts do not depend on the
    # block size, and memory does not grow with the number of shots.
    records = enumerate_branches(psi)
    rng = seeded_stream(args.seed)
    counts = np.zeros(4, dtype=np.intp)
    for start in range(0, args.shots, _SHOT_BLOCK):
        draws = rng.random(min(_SHOT_BLOCK, args.shots - start))
        draws *= 4.0
        counts += np.bincount(draws.astype(np.intp), minlength=4)
    for record, count in zip(records, counts):
        bits = "".join(str(bit) for bit in record.outcome.bits)
        print(f"outcome {record.outcome.name} (bits {bits}): {count}")
    mean_fidelity = float(np.dot(counts, [r.fidelity for r in records]) / args.shots)
    print(f"mean fidelity {mean_fidelity:.6f}")
    return EXIT_OK


def _point_query(args):
    """The canonical report, the printed rho3 and the printed delta at the
    point the flags give, as ``deviation`` and ``paper-check`` show them."""
    a, b = normalized_amplitudes(complex(args.a_re, args.a_im), complex(args.b_re, args.b_im))
    gamma = args.gamma * cmath.exp(1j * args.gamma_phase)
    env = EnvironmentModel(gamma, complex(args.c0_re, args.c0_im), complex(args.c1_re, args.c1_im))
    report = direct_report(a, b, env)
    return report, reduced_state_paper_literal(a, b, env), deviation_closed_form_paper(a, b, env)


def cmd_deviation(args) -> int:
    report, literal, delta_paper = _point_query(args)
    print(f"delta_canonical {report.delta:.12g}")
    print(f"delta_paper {delta_paper:.12g}")
    print(f"fidelity {report.fidelity:.12g}")
    print(f"purity {report.purity:.12g}")
    print("rho3 (canonical partial trace):")
    print(_fmt_matrix(report.rho3.rows))
    print("rho3 (printed closed form):")
    print(_fmt_matrix(literal))
    return EXIT_OK


def cmd_paper_check(args) -> int:
    report, literal, delta_paper = _point_query(args)
    rho3 = report.rho3.mat
    diff = literal - rho3
    print("rho3 (canonical partial trace):")
    print(_fmt_matrix(report.rho3.rows))
    print(f"trace_canonical {np.trace(rho3).real:.12g}")
    print("rho3 (printed closed form):")
    print(_fmt_matrix(literal))
    print(f"trace_paper {np.trace(literal).real:.12g}")
    print("entrywise difference (printed - canonical):")
    print(_fmt_matrix(diff))
    print(f"max_abs_difference {np.abs(diff).max():.12g}")
    print(f"delta_canonical {report.delta:.12g}")
    print(f"delta_paper {delta_paper:.12g}")
    return EXIT_OK


def _sweep_config(args) -> SweepConfig:
    cfg = SweepConfig() if args.config is None else load_config(args.config)
    for name in _CONFIG_TYPES:  # a flag that was given overrides its key
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    cfg.validate()
    return cfg


# Rows per kernel call in render_sweep_csv: its memory is a block's arrays
# and rows, whatever the number of steps.
_BLOCK_ROWS = 1024


def _block_overlaps(cfg: SweepConfig, start: int, stop: int, phase: complex) -> np.ndarray:
    """Rows ``start`` to ``stop``'s overlaps: one float64 array scaled in
    place into their magnitudes, which is freed once the phase is applied."""
    magnitude = np.arange(start, stop, dtype=float)
    magnitude /= cfg.steps - 1
    magnitude *= cfg.gamma_end - cfg.gamma_start
    magnitude += cfg.gamma_start
    return magnitude * phase


def render_sweep_csv(cfg: SweepConfig, out) -> None:
    """Write the CSV for a validated config to the binary stream ``out``, as
    ASCII bytes; the bytes are a pure function of the config.

    The rows are computed and written in blocks of ``_BLOCK_ROWS``: each
    block builds its own overlaps from its row indices, then makes one
    ``printed_deviation`` call and one batched ``closed_form`` call, whose
    float64 arrays are formatted in place, so memory does not grow with
    ``steps``: there is no grid array for the whole sweep. Row ``k``'s
    overlap is ``(gamma_start + (gamma_end - gamma_start) * (k / (steps -
    1))) * phase``, the same operations in the same order in every block.
    A block holds only the columns it writes: the printed delta is computed
    first, and of ``closed_form``'s arrays only delta, fidelity and purity
    are kept. A batch equals scalar calls bit for bit, so the bytes do not
    depend on the block size. The one error after the header is the printed
    form overflowing, which can come after earlier blocks were written;
    ``cmd_sweep`` writes to a temporary file, so such a partial CSV is never
    seen. The rows are not checked again: each is a qubit's state by
    construction of a validated config."""
    a, b, c0, c1 = cfg.a, cfg.b, cfg.c0, cfg.c1
    phase = cmath.exp(1j * cfg.gamma_phase)
    # The eight input columns are the same on every row: format them once.
    inputs = ",".join(
        f"{v:.17g}" for z in (c0, c1, a, b) for v in (z.real, z.imag)
    )
    row = f"%.17g,%.17g,{inputs},%.17g,%.17g,%.17g,%.17g\n".encode("ascii")
    out.write((",".join(CSV_FIELDS) + "\n").encode("ascii"))
    for start in range(0, cfg.steps, _BLOCK_ROWS):
        gamma = _block_overlaps(cfg, start, min(start + _BLOCK_ROWS, cfg.steps), phase)
        # No check follows the kernel: validate() admits only a finite phase
        # and gamma_start, gamma_end in [0, 1], so |gamma| <= 1 to a few
        # ulps, and closed_form divides by the coupled norm, so every row is
        # a qubit's state: unit trace, determinant rho00 rho11 (1 - |gamma|^2).
        delta_paper = printed_deviation(a, b, c0, c1, gamma)
        delta, fidelity, purity = closed_form(a, b, c0, c1, gamma)[4:]
        # Iterating a memoryview of a float64 array yields Python floats,
        # as tolist() would, without a list per column. gamma's float view
        # holds each overlap's real and imaginary parts in turn, so one
        # iterator zipped twice gives the first two columns.
        parts = iter(memoryview(gamma.view(float)))
        columns = map(memoryview, (delta, delta_paper, fidelity, purity))
        out.writelines(row % values for values in zip(parts, parts, *columns))


def cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    # Stream into a file beside the output and rename it to the output, so a
    # failed sweep (the one case that removes the temporary file) never leaves
    # a truncated CSV or clobbers an existing one. The old output is removed
    # only once the new one is complete: renaming over an existing file makes
    # ext4 (auto_da_alloc) write the new file's data to the device inside the
    # rename. An I/O error names the output path, not the temporary file.
    tmp = f"{cfg.output_path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            render_sweep_csv(cfg, handle)
        with contextlib.suppress(FileNotFoundError):
            os.remove(cfg.output_path)
        os.replace(tmp, cfg.output_path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, cfg.output_path) from None
        raise
    print(f"wrote {cfg.steps} rows to {cfg.output_path}")
    return EXIT_OK


_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-3`` or ``-inf`` as a value; argparse's own pattern takes only ``-1``, ``-1.5``.
    A flag's value ``--`` (``--out=--``) is the string ``--`` on every Python, as from 3.13."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:  # argparse before 3.13 drops it
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process; parsing returns a
    fresh namespace each call, so reusing it carries no state between calls.
    Its ``subcommands`` maps each subcommand's name to that one's parser."""
    parser = _Parser(
        prog="teleportsim",
        description="Qubit teleportation with an environment-coupled correction step.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("teleport", cmd_teleport, "run the ideal protocol for many shots"),
        ("deviation", cmd_deviation, "deviation report at one parameter point"),
        ("paper-check", cmd_paper_check, "canonical vs printed reduced state"),
        ("sweep", cmd_sweep, "CSV sweep over the overlap magnitude"),
    ):
        p = sub.add_parser(name, help=help_text)
        for o in _OPTIONS:
            if name in o.commands:  # a sweep flag's None is "not given": the config's value stands
                default = None if name == "sweep" else o.default
                p.add_argument(f"--{o.name.replace('_', '-')}", type=o.type, default=default,
                               help=o.help if isinstance(o.help, str) else o.help[name])
        p.set_defaults(func=func)
    # sweep, the last parser, also takes a config file and an output path.
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    p.add_argument("--out", type=str, default=None, dest="output_path", metavar="OUT", help="output CSV path")

    for p in sub.choices.values():  # the namespace parse_known_args starts from
        p._start = {a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS} | p._defaults
    parser.subcommands = sub.choices
    return parser


def _read_exact(sub, words):
    """``sub.parse_args(words)`` read from ``sub``'s option table, or None
    unless each word is ``--flag=value`` or ``--flag`` then a value word not
    starting with ``-``, each flag is exactly one of ``sub``'s typed options,
    and each type takes its value. A value ``--`` after ``=`` is read like any
    other, as ``_Parser`` reads it."""
    values = dict(sub._start)
    words = iter(words)
    for word in words:
        flag, sep, value = word.partition("=")
        if not sep:
            value = next(words, "-")  # no value word: argparse's error
        action = sub._option_string_actions.get(flag)
        if action is None or action.type is None or not sep and value.startswith("-"):
            return None
        try:
            values[action.dest] = action.type(value)
        except ValueError:
            return None
    return argparse.Namespace(**values)


def _parse_args(argv: list[str]):
    """``build_parser().parse_args(argv)``, without argparse where it can be.

    Exact flags after a subcommand's name are read from that subcommand's
    option table (``_read_exact``). Anything else goes to the top-level
    parser, for its own namespace, messages and exit codes: no subcommand, an
    abbreviation, ``-h``/``--help``, a flag with no value, a separate value
    word starting with ``-`` (``--c1-im -1e-3``), or a value its type
    rejects (``--steps=--`` among them: ``--`` after ``=`` is a value)."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    args = sub and _read_exact(sub, argv[1:])
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _check_numbers(vars(args))
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
