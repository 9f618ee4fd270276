import cmath
import contextlib
import hashlib
import io
import math
import os
import random
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleportsim import cli
from teleportsim.cli import (
    _BLOCK_ROWS,
    _SHOT_BLOCK,
    CSV_FIELDS,
    SweepConfig,
    UsageError,
    _check_numbers,
    _parse_args,
    build_parser,
    load_config,
    main,
    render_sweep_csv,
)
from teleportsim.envmodel import DegenerateModelError, closed_form, printed_deviation
from teleportsim.qcore import seeded_stream

from support import BELL_DRAW_EDGES, BELL_DRAW_STATES, SQRT_HALF

POINT_COMMANDS = ("deviation", "paper-check")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return values


# ---------------------------------------------------------------- teleport

def test_teleport_counts_sum_to_shots(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--shots", "500", "--seed", "3")
    assert code == 0
    counts = [int(line.rsplit(":", 1)[1]) for line in out.splitlines() if line.startswith("outcome")]
    assert len(counts) == 4
    assert sum(counts) == 500


class _Draws:
    """A stand-in for ``seeded_stream(seed)`` whose draws are given."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, n):
        return np.array(self.draws[:n], dtype=float)


@pytest.mark.parametrize("amplitudes", BELL_DRAW_STATES)
def test_teleport_counts_each_draw_in_its_quarter(monkeypatch, capsys, amplitudes):
    a, b = (complex(z) for z in amplitudes)
    state = ("--a-re", repr(a.real), "--a-im", repr(a.imag), "--b-re", repr(b.real), "--b-im", repr(b.imag))

    def counts(draws):
        monkeypatch.setattr(cli, "seeded_stream", lambda seed: _Draws(draws))
        code, out, _ = run_cli(capsys, "teleport", "--shots", str(len(draws)), *state)
        assert code == 0
        return [int(line.rsplit(":", 1)[1]) for line in out.splitlines() if line.startswith("outcome")]

    for u, index in BELL_DRAW_EDGES:
        assert counts([u]) == [int(i == index) for i in range(4)], u
    # All eight draws in one run: two in each quarter.
    assert counts([u for u, _ in BELL_DRAW_EDGES]) == [2, 2, 2, 2]


def test_teleport_memory_is_two_words_per_shot(capsys):
    for shots in (1_000_000, 10_000_000):
        tracemalloc.start()
        try:
            code = main(["teleport", "--shots", str(shots)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        # One float64 draw and one outcome index per shot of one block,
        # whatever the number of shots, plus a fixed part (about 1 MB, with
        # the modules a first run imports).
        assert peak < 16 * _SHOT_BLOCK + 2_000_000, shots


# Shot counts at and across the draw blocks' edges: the streamed counts equal
# those of one whole-array draw, since consecutive random(k) calls continue
# one Philox stream.
@pytest.mark.parametrize("seed, shots", [
    (0, 1), (7, 5), (11, _SHOT_BLOCK), (11, _SHOT_BLOCK + 1), (3, 2 * _SHOT_BLOCK + 3), (2**70, 200_001),
])
def test_teleport_streamed_counts_equal_one_whole_array_draw(capsys, seed, shots):
    code, out, _ = run_cli(capsys, "teleport", "--shots", str(shots), "--seed", str(seed))
    draws = seeded_stream(seed).random(shots)
    expected = np.bincount((4.0 * draws).astype(np.intp), minlength=4)
    assert code == 0
    assert [int(line.rsplit(":", 1)[1]) for line in out.splitlines() if line.startswith("outcome")] == expected.tolist()


# ``teleport --shots 1000`` stdout per seed. Every branch has probability
# 1/4 at any input state, so the counts depend on the seed alone.
PINNED_TELEPORT_COUNTS = {
    0: (257, 235, 243, 265),
    7: (257, 263, 246, 234),
    11: (253, 267, 228, 252),
}


@pytest.mark.parametrize("seed", sorted(PINNED_TELEPORT_COUNTS))
@pytest.mark.parametrize(
    "state",
    [
        (),
        ("--a-re", "0.6", "--b-re", "0.8"),
        ("--a-re", "0.3", "--a-im", "-0.4", "--b-re", "-0.5", "--b-im", "0.7"),
        ("--a-re", "1", "--b-re", "0"),
    ],
)
def test_teleport_output_is_pinned(capsys, state, seed):
    code, out, _ = run_cli(capsys, "teleport", "--shots", "1000", "--seed", str(seed), *state)
    counts = PINNED_TELEPORT_COUNTS[seed]
    assert code == 0
    assert out == (
        f"outcome PHI_PLUS (bits 00): {counts[0]}\n"
        f"outcome PHI_MINUS (bits 10): {counts[1]}\n"
        f"outcome PSI_PLUS (bits 01): {counts[2]}\n"
        f"outcome PSI_MINUS (bits 11): {counts[3]}\n"
        "mean fidelity 1.000000\n"
    )


# The default outputs, byte for byte: a change to the numerics that moves a
# printed digit shows here.
PINNED_SWEEP_SHA256 = "6c4f4f0e09f96ad016849b8532cabf788663a933440d0217e18e3f40020de9f3"

PINNED_DEVIATION = """\
delta_canonical 2.22044604925e-16
delta_paper 1.57009245868e-16
fidelity 1
purity 1
rho3 (canonical partial trace):
  [ 0.5+0j  0.5+0j ]
  [ 0.5+0j  0.5+0j ]
rho3 (printed closed form):
  [ 0.5+0j  0.5+0j ]
  [ 0.5+0j  0.5+0j ]
"""

COMPLEX_POINT = (
    "--a-re", "0.3", "--a-im", "-0.4", "--b-re", "-0.5", "--b-im", "0.7",
    "--c0-re", "0.9", "--c0-im", "0.2", "--c1-re", "0.4", "--c1-im", "-0.6",
    "--gamma", "0.8", "--gamma-phase", "0.7",
)

PINNED_PAPER_CHECK = """\
rho3 (canonical partial trace):
  [ 0.355767620961+0j  0.132737138055-0.359258883699j ]
  [ 0.132737138055+0.359258883699j  0.644232379039+0j ]
trace_canonical 1
rho3 (printed closed form):
  [ 0.35202020202+0j  0.16016947992-0.433505719663j ]
  [ 0.16016947992+0.433505719663j  0.637446464646+0j ]
trace_paper 0.989466666667
entrywise difference (printed - canonical):
  [ -0.00374741894079+0j  0.0274323418647-0.0742468359644j ]
  [ 0.0274323418647+0.0742468359644j  -0.00678591439254+0j ]
max_abs_difference 0.0791525491119
delta_canonical 0.953048354416
delta_paper 1.04280380447
"""

# The trace the printed form loses at gamma = 0: 1/2 against 1.
PINNED_PAPER_CHECK_DEPHASED = """\
rho3 (canonical partial trace):
  [ 0.5+0j  0+0j ]
  [ 0+0j  0.5+0j ]
trace_canonical 1
rho3 (printed closed form):
  [ 0.25+0j  0+0j ]
  [ 0+0j  0.25+0j ]
trace_paper 0.5
entrywise difference (printed - canonical):
  [ -0.25+0j  0+0j ]
  [ 0+0j  -0.25+0j ]
max_abs_difference 0.25
delta_canonical 0.707106781187
delta_paper 0.790569415042
"""


def test_default_sweep_csv_is_pinned(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == PINNED_SWEEP_SHA256


# A sender's |0> at overlap phase 4.0: gamma_start = 0 times the phase gives
# the first row's gamma_im = -0, which the CSV prints as "-0".
SIGNED_ZERO_SWEEP = ("--a-re", "1", "--b-re", "0", "--gamma-phase", "4.0", "--steps", "11")
PINNED_SIGNED_ZERO_SWEEP_SHA256 = "1ad6ec03011622c2c71020625ddeb2f6ac89c8612d9a75cbc851aaf2b42f7ff0"


def test_signed_zero_sweep_csv_is_pinned(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", *SIGNED_ZERO_SWEEP, "--out", str(out_path))
    assert code == 0
    data = out_path.read_bytes()
    assert data.splitlines()[1].startswith(b"0,-0,")
    assert hashlib.sha256(data).hexdigest() == PINNED_SIGNED_ZERO_SWEEP_SHA256


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("deviation",), PINNED_DEVIATION),
        (("paper-check", *COMPLEX_POINT), PINNED_PAPER_CHECK),
        (("deviation", "--gamma", "1"), PINNED_DEVIATION),
        (("paper-check", "--gamma", "0"), PINNED_PAPER_CHECK_DEPHASED),
    ],
)
def test_point_query_output_is_pinned(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_teleport_rejects_zero_state(capsys):
    code, _, err = run_cli(capsys, "teleport", "--a-re", "0", "--b-re", "0")
    assert code == 2
    assert "do not define" in err


# 2**50 is far above the counts' 2**32 ceiling, which bounds how long a run
# takes (shots and rows stream in fixed blocks): the rule rejects it before
# any run starts.
ABOVE_CEILING = str(2**50)


def test_teleport_count_above_the_ceiling_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "teleport", "--shots", ABOVE_CEILING)
    assert code == 2
    assert out == ""
    assert err == f"error: shots must be <= 4294967296, got {ABOVE_CEILING}\n"


def test_sweep_count_above_the_ceiling_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--steps", ABOVE_CEILING, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err == f"error: steps must be <= 4294967296, got {ABOVE_CEILING}\n"
    assert list(tmp_path.iterdir()) == []  # the temp file is removed


# A count past numpy's size limit is above the counts' 2**32 ceiling, so the
# rule names it at validation, before any array is allocated.
@pytest.mark.parametrize("count", [str(2**63 - 1), str(2**64)])
@pytest.mark.parametrize("command, name", [("teleport", "shots"), ("sweep", "steps")])
def test_count_past_numpys_size_limit_is_named(tmp_path, monkeypatch, capsys, command, name, count):
    monkeypatch.chdir(tmp_path)  # the sweep's default output and temp file would land here
    code, out, err = run_cli(capsys, command, f"--{name}", count)
    assert (code, out, err) == (2, "", f"error: {name} must be <= 4294967296, got {count}\n")
    assert list(tmp_path.iterdir()) == []


# The counts' one ceiling, 2**32, as a flag or a config key, checked without
# a run: the rule rejects a count above it as the pinned text names it.
@pytest.mark.parametrize("source, name", [("flag", "shots"), ("flag", "steps"), ("config", "steps")])
def test_a_count_above_2_to_the_32_is_rejected_by_the_rule(tmp_path, source, name):
    def values(count):
        if source == "config":
            path = tmp_path / "run.cfg"
            path.write_text(f"{name} = {count}\n")
            return vars(load_config(str(path)))
        return vars(_parse_args(["teleport" if name == "shots" else "sweep", f"--{name}", str(count)]))

    _check_numbers(values(2**32))
    with pytest.raises(UsageError) as excinfo:
        _check_numbers(values(2**32 + 1))
    assert str(excinfo.value) == f"{name} must be <= 4294967296, got {2**32 + 1}"


# One rule for the counts and seeds the CLI reads, as a flag or a config key:
# shots >= 1, steps >= 2, seed >= 0. A flag is checked before a config file is read.
@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["teleport", "--shots", "0"], None, "shots must be >= 1, got 0"),
        (["teleport", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["sweep", "--steps", "1"], None, "steps must be >= 2, got 1"),
        (["sweep", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["sweep", "--steps", "1", "--config", "missing.cfg"], None, "steps must be >= 2, got 1"),
        (["sweep", "--config", "run.cfg"], "steps = 1\n", "steps must be >= 2, got 1"),
        (["sweep", "--config", "run.cfg"], "seed = -1\n", "seed must be >= 0, got -1"),
    ],
    ids=["teleport-shots", "teleport-seed", "sweep-steps", "sweep-seed", "sweep-steps-before-config",
         "config-steps", "config-seed"],
)
def test_count_or_seed_below_its_minimum_is_rejected_by_name(tmp_path, monkeypatch, capsys, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "sweep.csv").exists()


# An argv with several faults reports one: every non-finite float first,
# then each range or minimum in option order, then each ceiling.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["teleport", "--shots=8589934592", "--seed=-1"], "seed must be >= 0, got -1"),
        (["sweep", "--steps=8589934592", "--seed=-1"], "seed must be >= 0, got -1"),
        (["sweep", "--steps=1", "--gamma-end=2"], "gamma_end must lie in [0, 1], got 2.0"),
        (["sweep", "--steps=8589934592", "--gamma-start=-1"], "gamma_start must lie in [0, 1], got -1.0"),
        (["deviation", "--gamma=2", "--a-re=inf"], "a_re is not finite"),
    ],
    ids=["teleport-ceiling-seed", "sweep-ceiling-seed", "sweep-steps-range", "sweep-ceiling-range", "range-finite"],
)
def test_a_multi_fault_argv_reports_its_first_fault_in_check_order(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_seed_beyond_64_bits_is_accepted_by_every_subcommand(tmp_path, monkeypatch, capsys):
    # A seed follows teleport's rule everywhere: any integer >= 0. The sweep
    # uses none, so its CSV is the default one.
    seed = str(2**64)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "teleport", "--seed", seed, "--shots", "3")
    assert (code, err) == (0, "") and "mean fidelity 1.000000" in out
    (tmp_path / "run.cfg").write_text(f"seed = {seed}\n")
    for name, argv in (
        ("default.csv", []),
        ("flag.csv", ["--seed", seed]),
        ("config.csv", ["--config", "run.cfg"]),
    ):
        code, _, err = run_cli(capsys, "sweep", *argv, "--out", name)
        assert (code, err) == (0, "")
    default = (tmp_path / "default.csv").read_bytes()
    assert (tmp_path / "flag.csv").read_bytes() == default
    assert (tmp_path / "config.csv").read_bytes() == default


# ---------------------------------------------------------------- deviation

def test_deviation_fully_dephased_defaults(capsys):
    code, out, _ = run_cli(capsys, "deviation", "--gamma", "0")
    assert code == 0
    report = parse_report(out)
    assert report["delta_canonical"] == pytest.approx(SQRT_HALF, abs=1e-12)
    assert "rho3 (canonical partial trace):" in out
    assert "rho3 (printed closed form):" in out


@pytest.mark.parametrize("phase", ["0", "4.636599604190248", "1.335432049952276"])
def test_overlap_above_one_is_quoted_as_given_at_any_phase(capsys, phase):
    # gamma * exp(i phase) has modulus 1.5000000000000002 or 1.4999999999999998
    # at the last two phases; the error quotes the magnitude the user typed.
    code, out, err = run_cli(capsys, "deviation", "--gamma", "1.5", "--gamma-phase", phase)
    assert (code, out, err) == (2, "", "error: gamma must lie in [0, 1], got 1.5\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["deviation", "--gamma"], "gamma"),
        (["paper-check", "--gamma"], "gamma"),
        (["sweep", "--gamma-end"], "gamma_end"),
        (["sweep", "--gamma-start"], "gamma_start"),
    ],
)
def test_overlap_just_above_one_is_rejected_by_every_subcommand(tmp_path, monkeypatch, capsys, argv, name):
    # Within EnvironmentModel's 1e-12 tolerance, but the CLI holds the
    # magnitude it reads to [0, 1] exactly.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "1.0000000000005")
    assert (code, out, err) == (2, "", f"error: {name} must lie in [0, 1], got 1.0000000000005\n")
    assert list(tmp_path.iterdir()) == []


def test_deviation_prints_twelve_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "deviation", "--gamma", "0.5", "--a-re", "0.6", "--b-re", "0.8")
    report = parse_report(out)
    expected = np.sqrt(2) * 0.48 * 0.5
    assert report["delta_canonical"] == pytest.approx(expected, abs=1e-11)
    assert len(f"{report['delta_canonical']}") >= 12


def test_deviation_coefficient_flags_reach_the_model(capsys):
    # unit coefficients at gamma=0: rho3 = diag(|a|^2, |b|^2), delta = sqrt(2)|ab|
    code, out, _ = run_cli(
        capsys,
        "deviation", "--gamma", "0",
        "--a-re", "0.6", "--b-re", "0.8",
        "--c0-re", "1", "--c1-re", "1",
    )
    assert code == 0
    report = parse_report(out)
    assert report["delta_canonical"] == pytest.approx(np.sqrt(2) * 0.48, abs=1e-12)
    assert report["fidelity"] == pytest.approx(1 - 2 * 0.36 * 0.64, abs=1e-12)


def test_deviation_gamma_phase_rotates_overlap(capsys):
    # gamma = 0.5 e^{i pi} = -0.5; for c0=c1 the off-diagonal mismatch is
    # a b* (gamma - 1), so delta = sqrt(2)|ab||gamma - 1|
    code, out, _ = run_cli(
        capsys, "deviation", "--gamma", "0.5", "--gamma-phase", str(np.pi)
    )
    assert code == 0
    report = parse_report(out)
    expected = np.sqrt(2) * 0.5 * abs(-0.5 - 1)
    assert report["delta_canonical"] == pytest.approx(expected, abs=1e-11)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flag, value, name, command",
    [
        (flag, value, name, command)
        for flag, value, name, commands in [
            ("--gamma", "inf", "gamma", POINT_COMMANDS),
            ("--gamma", "-inf", "gamma", POINT_COMMANDS),
            ("--gamma", "nan", "gamma", POINT_COMMANDS),
            ("--gamma-phase", "inf", "gamma_phase", POINT_COMMANDS),
            ("--gamma-phase", "nan", "gamma_phase", POINT_COMMANDS),
            ("--a-re", "nan", "a_re", POINT_COMMANDS + ("teleport",)),
            ("--b-re", "-inf", "b_re", ("teleport",)),
            ("--b-im", "inf", "b_im", POINT_COMMANDS),
            ("--c0-re", "nan", "c0_re", POINT_COMMANDS),
            ("--c1-im", "-inf", "c1_im", POINT_COMMANDS),
        ]
        for command in commands
    ],
)
def test_point_query_rejects_a_non_finite_overlap_by_flag_name(capsys, flag, value, name, command):
    code, out, err = run_cli(capsys, command, f"{flag}={value}")
    assert (code, out, err) == (2, "", f"error: {name} is not finite\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["deviation", "paper-check"])
@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
def test_non_finite_negative_overlap_as_a_separate_word_is_rejected_by_name(capsys, command, value):
    code, out, err = run_cli(capsys, command, "--gamma", value)
    assert (code, out, err) == (2, "", "error: gamma is not finite\n")


@pytest.mark.parametrize(
    "flag, value",
    [("--c1-im", "-1e-3"), ("--a-re", "-1e5"), ("--c0-re", "-2.5E-1"), ("--gamma-phase", "-1E+2")],
)
@pytest.mark.parametrize("command", ["deviation", "paper-check"])
def test_negative_number_in_exponent_form_is_a_value_as_a_separate_word(capsys, command, flag, value):
    separate = run_cli(capsys, command, flag, value)
    joined = run_cli(capsys, command, f"{flag}={value}")
    assert separate == joined
    assert separate[0] == 0 and separate[2] == ""


# ---------------------------------------------------------------- paper-check

def test_paper_check_agrees_in_special_case(capsys):
    code, out, _ = run_cli(capsys, "paper-check", "--gamma", "1")
    assert code == 0
    report = parse_report(out)
    assert report["trace_canonical"] == pytest.approx(1, abs=1e-12)
    assert report["trace_paper"] == pytest.approx(1, abs=1e-12)
    assert report["max_abs_difference"] == pytest.approx(0, abs=1e-12)


# ---------------------------------------------------------------- sweep

def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]
    return header, rows


def test_sweep_row_count_and_header(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--steps", "11", "--out", str(out_path))
    assert code == 0
    header, rows = read_rows(out_path)
    assert header == list(CSV_FIELDS)
    assert len(rows) == 11


def test_sweep_prints_how_many_rows_it_wrote_and_where(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    assert run_cli(capsys, "sweep", "--steps", "11", "--out", str(out_path)) == (
        0, f"wrote 11 rows to {out_path}\n", "")


def test_sweep_endpoint_values(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--steps", "2", "--out", str(out_path))
    _, rows = read_rows(out_path)
    assert rows[0]["delta_canonical"] == pytest.approx(np.sqrt(2) * 0.5, abs=1e-12)
    assert rows[-1]["delta_canonical"] == pytest.approx(0, abs=1e-12)
    assert rows[0]["gamma_re"] == 0
    assert rows[-1]["gamma_re"] == 1


def test_sweep_reruns_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_cli(capsys, "sweep", "--out", str(first))
    run_cli(capsys, "sweep", "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_sweep_values_round_trip_seventeen_digits(tmp_path, capsys):
    from teleportsim.envmodel import EnvironmentModel, deviation, reduced_state
    from teleportsim.qcore import Ket, to_density

    out_path = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--steps", "5", "--out", str(out_path))
    _, rows = read_rows(out_path)
    a = b = complex(SQRT_HALF)
    rho1 = to_density(Ket(np.array([a, b]), ("3",)))
    for row in rows:
        env = EnvironmentModel(complex(row["gamma_re"], row["gamma_im"]), a, b)
        expected = deviation(reduced_state(a, b, env), rho1)
        assert row["delta_canonical"] == expected  # exact round-trip


def test_sweep_delta_non_increasing_with_defaults(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--out", str(out_path))
    _, rows = read_rows(out_path)
    assert len(rows) == 101
    deltas = [row["delta_canonical"] for row in rows]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(deltas, deltas[1:]))


# A sweep of three blocks with a nonzero phase, pinned before the rows were
# written in blocks: the block edges leave no trace in the bytes.
BLOCKS_SWEEP = {
    "steps": 2051, "gamma_phase": 0.7, "gamma_start": 0.1, "gamma_end": 0.9,
    "a_re": 0.6, "b_re": 0.0, "b_im": 0.8,
    "c0_re": 0.3, "c0_im": 0.2, "c1_re": -0.5, "c1_im": 1.2,
}
PINNED_BLOCKS_SWEEP_SHA256 = "e6e45796a3dfbd0912f5f5a7a49f12220a510256ca85886daa701a62f78e98da"


def test_sweep_across_block_edges_is_pinned_and_equals_scalar_calls(tmp_path, capsys):
    steps = BLOCKS_SWEEP["steps"]
    assert steps > 2 * _BLOCK_ROWS
    out_path = tmp_path / "sweep.csv"
    argv = [f"--{name.replace('_', '-')}={value}" for name, value in BLOCKS_SWEEP.items()]
    code, _, _ = run_cli(capsys, "sweep", *argv, "--out", str(out_path))
    assert code == 0
    data = out_path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_BLOCKS_SWEEP_SHA256
    lines = data.decode().splitlines()[1:]
    assert len(lines) == steps
    cfg = SweepConfig(**BLOCKS_SWEEP)
    cfg.validate()
    a, b, c0, c1 = cfg.a, cfg.b, cfg.c0, cfg.c1
    inputs = ",".join(f"{v:.17g}" for z in (c0, c1, a, b) for v in (z.real, z.imag))
    t = np.arange(steps) / (steps - 1)
    for edge in range(_BLOCK_ROWS, steps, _BLOCK_ROWS):
        for k in (edge - 1, edge):
            gamma = complex((cfg.gamma_start + (cfg.gamma_end - cfg.gamma_start) * t[k])
                            * cmath.exp(1j * cfg.gamma_phase))
            form = closed_form(a, b, c0, c1, gamma)
            delta_paper = printed_deviation(a, b, c0, c1, gamma)
            assert lines[k] == (
                f"{gamma.real:.17g},{gamma.imag:.17g},{inputs},{form.delta:.17g},"
                f"{delta_paper:.17g},{form.fidelity:.17g},{form.purity:.17g}"
            )


def test_printed_overflow_in_a_later_block_leaves_existing_output_untouched(tmp_path, capsys):
    steps = 3073
    # The printed form is finite over the first block and overflows after it.
    first_block = np.arange(_BLOCK_ROWS) / (steps - 1)
    printed_deviation(1, 0, 1e77, SQRT_HALF, first_block + 0j)
    out_path = tmp_path / "sweep.csv"
    out_path.write_text("earlier run\n")
    code, _, err = run_cli(
        capsys, "sweep", "--c0-re", "1e77", "--a-re", "1", "--b-re", "0", "--steps", str(steps),
        "--out", str(out_path),
    )
    assert code == 2
    assert "printed_deviation overflows float64" in err
    assert out_path.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


class _Discard(io.RawIOBase):
    """A binary stream that keeps nothing it is given."""

    def writable(self):
        return True

    def write(self, data):
        return len(data)


def test_sweep_memory_is_the_grid_plus_a_fixed_block():
    steps = 100_001
    cfg = SweepConfig(steps=steps)
    cfg.validate()
    tracemalloc.start()
    try:
        render_sweep_csv(cfg, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # At most 20 float64 arrays of a block's length, whatever the number of
    # steps: each block builds its own overlaps, it holds only the columns
    # it writes, never closed_form's off-diagonal beside the printed delta's
    # temporaries, and the kernels build every array in place.
    assert peak < 20 * 8 * _BLOCK_ROWS


# The CSV's rows are formatted with a bytes template; it must give the bytes
# the str template gave, so that no pinned sweep moves.
FORMAT_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.min,
    1e-5, 9.9999999999999991e-6, 1.0000000000000001e-5, 0.0001,
    1e16, 9999999999999998.0, 1e17, 99999999999999984.0, 1.0000000000000002e17,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
    1.0, -1.0, 1 / 3, SQRT_HALF,
)


def test_bytes_format_of_a_float_equals_the_str_format():
    rng = random.Random(19)
    randoms = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(20_000)]
    for x in (*FORMAT_EDGES, *randoms):
        assert b"%.17g" % x == ("%.17g" % x).encode("ascii"), x


def test_sweep_unwritable_path_is_io_error(tmp_path, monkeypatch, capsys):
    # An empty path is a usage error instead, see the test below.
    monkeypatch.chdir(tmp_path)
    out = "missing/x.csv"
    code, _, err = run_cli(capsys, "sweep", "--out", out)
    assert code == 3
    assert err.startswith("error:")
    # The message names the path given, not the temporary file beside it.
    assert err.rstrip().endswith(f": {out!r}") and ".tmp" not in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("route", ["flag", "config"])
def test_sweep_rejects_an_empty_output_path_before_any_row(tmp_path, monkeypatch, capsys, route):
    monkeypatch.chdir(tmp_path)
    if route == "flag":
        argv = ("sweep", "--out", "")
    else:
        (tmp_path / "run.cfg").write_text("steps = 11\noutput_path =\n", encoding="utf-8")
        argv = ("sweep", "--config", "run.cfg")
    monkeypatch.setattr(cli, "render_sweep_csv", lambda cfg, out: pytest.fail("a row was computed"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: output_path must not be empty\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if route == "config" else [])


def test_sweep_rejects_overlap_range_outside_unit_interval(capsys):
    code, _, err = run_cli(capsys, "sweep", "--gamma-end", "1.2", "--out", "ignored.csv")
    assert code == 2
    assert "gamma_end" in err


@pytest.mark.parametrize(
    "flag, value, column, expected",
    [
        ("--gamma-phase", "-1E+2", "gamma_im", np.sin(-100.0)),
        ("--c1-im", "-1e-3", "c1_im", -1e-3),
        ("--b-im", "-5e-1", "b_im", -0.5 / np.sqrt(1.25)),
    ],
)
def test_sweep_takes_a_negative_exponent_form_as_a_separate_word(tmp_path, capsys, flag, value, column, expected):
    outputs = []
    for argv in ([flag, value], [f"{flag}={value}"]):
        out_path = tmp_path / f"{len(argv)}.csv"
        code, _, err = run_cli(capsys, "sweep", *argv, "--steps", "5", "--out", str(out_path))
        assert (code, err) == (0, "")
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    _, rows = read_rows(tmp_path / "2.csv")
    assert rows[-1][column] == pytest.approx(expected, rel=1e-15)


def test_sweep_rejects_non_finite_overlap_phase(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--gamma-phase", "nan", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "gamma_phase is not finite" in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- config file

def test_load_config_defaults_and_single_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gamma_end = 1.0\n")
    cfg = load_config(str(path))
    assert cfg == SweepConfig()


def test_load_config_parses_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full run\n"
        "\n"
        "steps = 11\n"
        "gamma_start = 0.25  # skip the flat region\n"
        "output_path = out.csv\n"
        "seed = 9\n"
    )
    cfg = load_config(str(path))
    assert cfg.steps == 11
    assert cfg.gamma_start == 0.25
    assert cfg.output_path == "out.csv"
    assert cfg.seed == 9


def test_sweep_config_value_may_hold_a_hash(tmp_path, capsys):
    # A '#' starts a comment only at the start of a line or after whitespace.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "  # indented comment\n"
        "steps = 3\t# after a tab\n"
        f"output_path = {tmp_path / 'run#2.csv'}\n"
    )
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#2.csv", "run.cfg"]
    _, rows = read_rows(tmp_path / "run#2.csv")
    assert len(rows) == 3


@pytest.mark.parametrize("prefix, newline", [("\ufeff", "\n"), ("", "\r\n"), ("\ufeff", "\r\n"), ("", "\r")])
def test_load_config_reads_a_bom_or_crlf_file_like_the_plain_one(tmp_path, prefix, newline):
    lines = ["steps = 11", "gamma_start = 0.25  # skip the flat region", "output_path = out.csv", ""]
    plain, other = tmp_path / "plain.cfg", tmp_path / "other.cfg"
    plain.write_bytes("\n".join(lines).encode("utf-8"))
    other.write_bytes((prefix + newline.join(lines)).encode("utf-8"))
    assert load_config(str(other)) == load_config(str(plain)) != SweepConfig()


def test_load_config_unknown_key_names_line():
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as handle:
        handle.write("steps = 3\nstps = 3\n")
        path = handle.name
    try:
        with pytest.raises(UsageError, match=r"unknown key 'stps' \(line 2\)"):
            load_config(path)
    finally:
        os.unlink(path)


def test_load_config_malformed_number_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gamma_end = 1.0\nsteps = eleven\n")
    with pytest.raises(UsageError, match=r"malformed number for 'steps' \(line 2\)"):
        load_config(str(path))


def test_load_config_non_utf8_byte_names_its_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"steps = 11\n# caf\xe9\n")
    with pytest.raises(UsageError, match=r"^config is not UTF-8 \(line 2\)$"):
        load_config(str(path))


def test_sweep_config_non_utf8_byte_past_the_first_chunk_names_its_line(tmp_path, capsys):
    # 201 comment lines, ended in turn by \n, \r\n and \r, put the bad byte on
    # line 202, more than 8 KB in: past a text-mode reader's first chunk.
    breaks = (b"\n", b"\r\n", b"\r")
    lines = [b"# " + b"x" * 60 + breaks[i % 3] for i in range(201)]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(b"".join(lines) + b"# caf\xe9\nsteps = 11\n")
    assert cfg_path.stat().st_size > 8192
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
    assert (code, out, err) == (2, "", "error: config is not UTF-8 (line 202)\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


# A value for each config key, other than its default, that validate() keeps.
PARITY_VALUES = {
    "a_re": "0.6", "a_im": "-0.25", "b_re": "0.8", "b_im": "0.5", "c0_re": "0.3", "c0_im": "-0.1",
    "c1_re": "0.9", "c1_im": "0.2", "gamma_start": "0.25", "gamma_end": "0.75", "steps": "11",
    "gamma_phase": "0.3", "seed": "9", "output_path": "run.csv",
}


def test_every_config_key_is_a_sweep_flag():
    # --out is the flag of output_path; --config names the file itself.
    sweep = build_parser().subcommands["sweep"]
    dests = {action.dest for action in sweep._actions if action.option_strings} - {"help", "config"}
    assert set(vars(SweepConfig())) == dests == set(PARITY_VALUES)
    assert sweep._option_string_actions["--out"].dest == "output_path"


@pytest.mark.parametrize("key", sorted(PARITY_VALUES))
def test_a_config_key_and_its_flag_give_the_same_config(tmp_path, key):
    value = PARITY_VALUES[key]
    flag = "--out" if key == "output_path" else f"--{key.replace('_', '-')}"
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    from_config = cli._sweep_config(_parse_args(["sweep", "--config", str(path)]))
    from_flag = cli._sweep_config(_parse_args(["sweep", f"{flag}={value}"]))
    assert from_flag == from_config != cli._sweep_config(_parse_args(["sweep"]))


def test_sweep_flag_overrides_config(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "out.csv"
    cfg_path.write_text(f"steps = 11\noutput_path = {out_path}\n")
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--steps", "21")
    assert code == 0
    _, rows = read_rows(out_path)
    assert len(rows) == 21


def test_sweep_out_flag_overrides_config_path(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("output_path = should_not_exist.csv\nsteps = 3\n")
    out_path = tmp_path / "actual.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert not (tmp_path / "should_not_exist.csv").exists()


def test_sweep_config_error_maps_to_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("stps = 3\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert "unknown key 'stps' (line 1)" in err


def test_sweep_config_line_without_equals_sign_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("steps 5\n")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err == "error: expected 'key = value' (line 1)\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


# An empty config path names no file: it fails to open like a missing one,
# rather than being read as "no config". "--" after "=" is a path like any
# other, on every Python, and no file of that name exists here.
@pytest.mark.parametrize("argv", [["--config", "none.cfg"], ["--config", ""], ["--config="], ["--config=--"]],
                         ids=["missing", "empty-word", "empty-equals", "double-dash"])
def test_sweep_missing_config_is_io_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "sweep", *argv)
    assert code == 3
    assert "error:" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_config_double_dash_reads_the_file_of_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "--").write_text("steps = 4\noutput_path = s.csv\n")
    assert run_cli(capsys, "sweep", "--config=--") == (0, "wrote 4 rows to s.csv\n", "")
    assert len(read_rows(tmp_path / "s.csv")[1]) == 4


def test_sweep_out_double_dash_writes_the_file_of_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "sweep", "--steps=3", "--out=--") == (0, "wrote 3 rows to --\n", "")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "--"]
    assert len(read_rows(tmp_path / "--")[1]) == 3


# "--" after "=" is a value, which a number's type rejects like any other
# word: a usage error naming the flag, before any output file is made.
@pytest.mark.parametrize("argv", [
    ["sweep", "--steps=--"], ["teleport", "--shots=--"], ["teleport", "--seed=--"], ["deviation", "--gamma=--"],
    ["deviation", "--a-re=--"], ["paper-check", "--c0-im=--"], ["sweep", "--gamma-phase=--"],
], ids=" ".join)
def test_numeric_double_dash_value_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: argument {argv[1].removesuffix('=--')}: invalid " in err and "value: '--'" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_config_normalizes_amplitudes(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out_path = tmp_path / "out.csv"
    cfg_path.write_text("a_re = 3\nb_re = 4\nsteps = 2\n")
    run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_path))
    _, rows = read_rows(out_path)
    assert rows[0]["a_re"] == pytest.approx(0.6, abs=1e-15)
    assert rows[0]["b_re"] == pytest.approx(0.8, abs=1e-15)


# ---------------------------------------------------------------- argparse plumbing

def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["warp"]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command, digest", [
    ((), "91d25398819c0164130eb4090d1b063b1b83da78ffea6ec9e6d1aaf3b2628d12"),
    (("sweep",), "c3cbf35bde424a51c6bbda51cf65f0379e9ce04057c85b596e2a6d3e1499d853"),
    (("teleport",), "631e9b57d5be1ef7a881e614430f386ceec35b5b1316f5a6b47ee0ebb7d34618"),
    (("deviation",), "0daa529aba8b9ea3b0a474a8dc3b801783ec6bccecf12c53cb3436c484edae63"),
    (("paper-check",), "f4aa3be30d51b7dd3be20f579f4ea0b166ca0017276865fd594c18a86612d489"),
], ids=["top", "sweep", "teleport", "deviation", "paper-check"])
def test_help_pages_are_pinned(monkeypatch, capsys, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*command, "--help"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


PARSE_CASES = (
    ["sweep", "--steps=11", "--gamma-phase", "0.3", "--a-re=0.6", "--b-im", "0.8", "--out", "s.csv"],
    ["sweep", "--config", "run.cfg", "--out", "s.csv"],
    ["-h"],
    ["sweep", "-h"],
    ["deviation", "--gamma", "x"],
    ["sweep", "--bogus", "1"],
    ["deviation", "extra"],
    ["swee"],
    [],
    ["--he"],
    ["sweep", "--he"],
    ["sweep", "--c1-im", "-1e-3"],
    ["sweep", "--", "--steps", "5"],
    ["teleport", "--shots", "5", "--seed", "2"],
    ["paper-check", "--gamma", "0.5"],
    # "--" after "=" is the value "--" on every Python; as its own word it
    # ends the options, and the flag has no value.
    ["sweep", "--out=--"],
    ["sweep", "--out", "--"],
    ["sweep", "--steps=--"],
    ["teleport", "--seed=--"],
    ["deviation", "--gamma=--"],
)


def _parse_outcome(parse, argv):
    """The namespace as a sorted repr, in which nan equals nan and -0.0 does
    not equal 0.0, or the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    return repr(sorted(vars(args).items()))


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_main_parses_as_the_top_level_parser_does(argv):
    assert _parse_outcome(_parse_args, argv) == _parse_outcome(build_parser().parse_args, argv)


VALUE_WORDS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([
        "1e-3", "-1e-3", "2E+5", "-.5", "inf", "-inf", "nan", "-nan", "Infinity", "1.2.3", "1e",
        "0x10", "1_000", " 7 ", "x", "a=b", "", "-", "--", "-h",
    ]),
)


@st.composite
def argvs(draw):
    """A subcommand, then flags exact or abbreviated, each with its value
    after ``=``, as the next word, or with none."""
    command = draw(st.sampled_from(sorted(build_parser().subcommands)))
    flags = sorted(build_parser().subcommands[command]._option_string_actions)
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(flags))
        flag = flag[:draw(st.sampled_from((len(flag), min(3, len(flag)), len(flag) - 1)))]
        form = draw(st.sampled_from(("=", "word", "none")))
        if form == "=":
            argv.append(f"{flag}={draw(VALUE_WORDS)}")
        elif form == "word":
            argv += [flag, draw(VALUE_WORDS)]
        else:
            argv.append(flag)
    return argv


def _with_parse_cases(test):
    for argv in PARSE_CASES:
        test = example(argv)(test)
    return test


@_with_parse_cases
@settings(max_examples=300, deadline=None)
@given(argvs())
def test_any_argv_parses_as_the_top_level_parser_does(argv):
    assert _parse_outcome(_parse_args, argv) == _parse_outcome(build_parser().parse_args, argv)


# A sweep as the benchmark's sweep-grid gives it: every value flag as
# --flag=value with a seventeen-digit repr, then --out PATH; or the same keys
# from a config file that also names the output.
BENCH_SHAPED_SWEEP = {
    "a_re": 0.8414709848078965, "a_im": -0.30116867893975674, "b_re": 1.2599210498948732, "b_im": 0.2,
    "c0_re": 0.5403023058681398, "c0_im": 1e-3, "c1_re": 0.7071067811865476, "c1_im": -0.41421356237309503,
    "gamma_start": 0.123, "gamma_end": 0.8660254037844386, "steps": 101,
    "gamma_phase": 2.5132741228718345, "seed": 3735928559,
}
PINNED_BENCH_SHAPED_SWEEP_SHA256 = "b31daadf01d9204408c2552c9d4aa56ec144e5a14b88ebcfc622d2b5ecc9f0c8"


def test_exact_flags_are_read_without_the_subcommands_parser(tmp_path, monkeypatch, capsys):
    def parse_known_args(*args, **kwargs):
        raise AssertionError("the sweep parser ran")

    monkeypatch.setattr(build_parser().subcommands["sweep"], "parse_known_args", parse_known_args)
    from_flags, from_config = tmp_path / "flags.csv", tmp_path / "config.csv"
    flags = [f"--{key.replace('_', '-')}={value!r}" for key, value in BENCH_SHAPED_SWEEP.items()]
    assert run_cli(capsys, "sweep", *flags, "--out", str(from_flags))[0] == 0
    config = tmp_path / "sweep.conf"
    body = "".join(f"{key} = {value!r}\n" for key, value in BENCH_SHAPED_SWEEP.items())
    config.write_text(f"{body}output_path = {from_config}\n", encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(config))[0] == 0
    for path in (from_flags, from_config):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_BENCH_SHAPED_SWEEP_SHA256


def test_main_with_no_argument_reads_sys_argv_in_one_pass(monkeypatch, capsys):
    # The console script calls main() with no argument: it parses
    # sys.argv[1:] as main(argv) does, reading exact flags without the
    # top-level parser.
    argv = ["deviation", "--gamma", "0.5"]
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["teleportsim", *argv])

    def full_parse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(build_parser(), "parse_args", full_parse)
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert expected[0] == 0 and "delta" in expected[1]


def test_reused_parser_carries_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    short, full = tmp_path / "short.csv", tmp_path / "full.csv"
    assert run_cli(capsys, "sweep", "--steps", "7", "--gamma-end", "0.5", "--out", str(short))[0] == 0
    assert main(["sweep", "--steps", "x"]) == 2
    assert run_cli(capsys, "sweep", "--out", str(full))[0] == 0
    _, rows = read_rows(full)
    assert len(rows) == 101
    assert rows[-1]["gamma_re"] == 1


# ---------------------------------------------------------------- validation boundary, atomic write

def test_deviation_rejects_negative_overlap(capsys):
    code, _, err = run_cli(capsys, "deviation", "--gamma", "-0.5")
    assert code == 2
    assert "gamma must lie in [0, 1], got -0.5" in err


def test_failed_sweep_leaves_existing_output_untouched(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    out_path.write_text("earlier run\n")
    # |c0 a| = |c1 b| = 0: the model is degenerate, found by validate() before any output is opened
    code, _, err = run_cli(
        capsys, "sweep", "--a-re", "1", "--b-re", "0", "--c0-re", "0", "--c1-re", "1",
        "--out", str(out_path),
    )
    assert code == 2
    assert "below DEGENERATE_TOL" in err
    assert out_path.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_a_degenerate_sweep_config_is_rejected_by_validate():
    cfg = SweepConfig(a_re=1, b_re=0, c0_re=0, c1_re=1)
    with pytest.raises(DegenerateModelError) as excinfo:
        cfg.validate()
    assert str(excinfo.value) == (
        "coupled state's norm computes to 0.0, below DEGENERATE_TOL = 1.4916681462400413e-154 with "
        "(c0, c1) at unit max-modulus: its square is zero or subnormal in float64"
    )


# The largest count the rule accepts (2**32 rows, hours of rendering) and an
# output in a missing directory: a degenerate model is rejected by validation
# before any row is computed or any file is opened.
@pytest.mark.parametrize("flags", [
    ("--steps", str(2**32), "--out", "x.csv"),
    ("--out", "missing/x.csv"),
], ids=["largest-accepted-count", "unwritable-directory"])
def test_a_degenerate_sweep_is_reported_before_any_row_or_io(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "sweep", "--a-re", "1", "--b-re", "0", "--c0-re", "0", *flags)
    assert code == 2
    assert "below DEGENERATE_TOL" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_both_coefficients_zero(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--c0-re", "0", "--c1-re", "0", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "c0 and c1 cannot both be zero" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_replaces_existing_output(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    out_path.write_text("earlier run\n")
    code, _, _ = run_cli(capsys, "sweep", "--steps", "3", "--out", str(out_path))
    assert code == 0
    header, rows = read_rows(out_path)
    assert header == list(CSV_FIELDS) and len(rows) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


@pytest.mark.parametrize("existing", [True, False], ids=["over-an-output", "new-output"])
def test_a_successful_sweep_does_not_unlink_its_renamed_temporary_file(tmp_path, monkeypatch, capsys, existing):
    # The rename has moved the temporary file, so unlinking it could only fail.
    out_path = tmp_path / "sweep.csv"
    if existing:
        out_path.write_text("earlier run\n")
    removed = []
    remove = os.remove

    def recorded(path):
        removed.append(os.fspath(path))
        remove(path)

    monkeypatch.setattr(os, "remove", recorded)
    assert run_cli(capsys, "sweep", "--steps", "3", "--out", str(out_path))[0] == 0
    assert removed == [str(out_path)]
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


# No sweep allocates by its count, so a MemoryError is a real out-of-memory,
# not a usage error: it propagates, as an interrupt does.
@pytest.mark.parametrize("error", [KeyboardInterrupt(), MemoryError(), OSError(28, "No space left on device")],
                         ids=["interrupted", "out-of-memory", "disk-full"])
def test_a_sweep_failing_mid_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys, error):
    out_path = tmp_path / "sweep.csv"
    out_path.write_text("earlier run\n")

    def failing(cfg, out):
        out.write(b"gamma_re")
        raise error

    monkeypatch.setattr(cli, "render_sweep_csv", failing)
    if isinstance(error, OSError):  # named by the output path, exit 3
        assert run_cli(capsys, "sweep", "--out", str(out_path)) == (
            3, "", f"error: [Errno 28] No space left on device: {str(out_path)!r}\n")
    else:
        with pytest.raises(type(error)):
            main(["sweep", "--out", str(out_path)])
    assert out_path.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_sweep_onto_a_directory_is_io_error_and_leaves_it(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    out_path.mkdir()
    code, _, err = run_cli(capsys, "sweep", "--steps", "3", "--out", str(out_path))
    assert code == 3
    assert err.startswith("error:")
    assert out_path.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


# ---------------------------------------------------------------- extreme scales

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a_re", ["1e200", "1e-200"])
@pytest.mark.parametrize("command", ["deviation", "teleport", "sweep", "paper-check"])
def test_amplitudes_at_any_scale_give_the_unit_answer(command, a_re, tmp_path, capsys):
    outputs = []
    for value in (a_re, "1"):
        out_path = tmp_path / f"{value}.csv"
        argv = [command, "--a-re", value, "--b-re", "0"]
        if command == "sweep":
            argv += ["--steps", "5", "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        outputs.append(out_path.read_bytes() if command == "sweep" else out)
    assert outputs[0] == outputs[1]
    if command == "sweep":
        _, rows = read_rows(tmp_path / f"{a_re}.csv")
        assert {(row["a_re"], row["b_re"]) for row in rows} == {(1.0, 0.0)}
    elif command == "teleport":
        assert "mean fidelity 1.000000" in outputs[0]
    elif command == "paper-check":
        assert parse_report(outputs[0])["delta_canonical"] == 0.0
    else:
        assert parse_report(outputs[0])["fidelity"] == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["deviation", "sweep"])
def test_coefficient_modulus_beyond_float64_is_usage_error(command, tmp_path, capsys):
    argv = [command, "--c0-re", "1.7e308", "--c0-im", "1.7e308"]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "sweep.csv")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "overflows float64" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []
