"""Acceptance suite: one test per release criterion.

Each test prints a [PASS]/[FAIL] line with its runtime (visible with
``pytest -s``) and enforces the criterion's time budget.
"""

import time
from contextlib import contextmanager
from itertools import count

import numpy as np
import pytest

from teleportsim.cli import main
from teleportsim.envmodel import (
    DegenerateModelError,
    EnvironmentModel,
    deviation,
    deviation_closed_form_paper,
    evolve,
    reduced_state,
    reduced_state_paper_literal,
)
from teleportsim.qcore import Ket, to_density
from teleportsim.teleport import BellOutcome, enumerate_branches, run_ideal

from support import SQRT_HALF, listed_conditional, random_model, random_qubit, traced_over_environment


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    within_budget = elapsed < budget_seconds
    verdict = "PASS" if within_budget else "FAIL"
    print(f"[{verdict}] criterion {number}: {description} ({elapsed:.3f}s)")
    assert within_budget, f"criterion {number} took {elapsed:.3f}s, budget {budget_seconds}s"


def test_criterion_1_ideal_protocol_exactness():
    with criterion(1, "ideal protocol exact on 1000 states x 4 branches", 1.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            records = enumerate_branches(Ket(random_qubit(rng), ("1",)))
            for record in records:
                assert record.fidelity >= 1 - 1e-12
                assert abs(record.probability - 0.25) <= 1e-12


def test_criterion_2_conditional_state_table():
    with criterion(2, "measured conditional states match the listed four", 1.0):
        rng = np.random.default_rng(1002)
        seeds = count(2024)
        for _ in range(100):
            a, b = random_qubit(rng)
            psi = Ket(np.array([a, b]), ("1",))
            seen = set()
            for _ in range(200):
                record = run_ideal(psi, next(seeds))
                overlap = np.vdot(listed_conditional(record.outcome, a, b), record.conditional_state.amplitudes)
                assert abs(abs(overlap) - 1) <= 1e-12
                seen.add(record.outcome)
                if len(seen) == 4:
                    break
            assert seen == set(BellOutcome)


def test_criterion_3_vanishing_deviation_special_case():
    with criterion(3, "deviation vanishes at gamma=1, c0=c1=1/sqrt(2)", 1.0):
        rng = np.random.default_rng(1003)
        env = EnvironmentModel(1, SQRT_HALF, SQRT_HALF)
        for _ in range(100):
            a, b = random_qubit(rng)
            rho1 = to_density(Ket(np.array([a, b]), ("3",)))
            assert deviation(reduced_state(a, b, env), rho1) <= 1e-12
            assert deviation_closed_form_paper(a, b, env) <= 1e-12


def test_criterion_4_dephased_limit():
    with criterion(4, "gamma=0 dephases: diagonal rho3, printed form exact", 1.0):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            a, b = random_qubit(rng)
            c0 = rng.standard_normal() + 1j * rng.standard_normal()
            c1 = rng.standard_normal() + 1j * rng.standard_normal()
            env = EnvironmentModel(0, c0, c1)
            rho3 = reduced_state(a, b, env).mat
            assert abs(rho3[0, 1]) < 1e-12
            assert abs(rho3[1, 0]) < 1e-12
            weight0 = abs(c0 * a) ** 2
            weight1 = abs(c1 * b) ** 2
            total = weight0 + weight1
            assert rho3[0, 0].real == pytest.approx(weight0 / total, abs=1e-12)
            assert rho3[1, 1].real == pytest.approx(weight1 / total, abs=1e-12)
            literal = reduced_state_paper_literal(a, b, env)
            assert np.array_equal(literal, np.diag([weight0, weight1]).astype(complex))


def test_criterion_5_oracle_equivalence():
    with criterion(5, "reduced_state matches loop-based partial trace", 1.0):
        rng = np.random.default_rng(1005)
        checked = 0
        while checked < 1000:
            a, b = random_qubit(rng)
            env = random_model(rng)
            try:
                rho3 = reduced_state(a, b, env)
            except DegenerateModelError:
                continue
            oracle = traced_over_environment(evolve(a, b, env).amplitudes)
            assert np.abs(rho3.mat - oracle).max() <= 1e-12
            checked += 1


def test_criterion_6_printed_expansion_consistency():
    with criterion(6, "printed deviation expansion equals matrix route", 1.0):
        rng = np.random.default_rng(1006)
        for _ in range(500):
            a, b = random_qubit(rng)
            env = random_model(rng)
            rho1 = to_density(Ket(np.array([a, b]), ("3",)))
            literal = reduced_state_paper_literal(a, b, env)
            assert literal[1, 0] == np.conj(literal[0, 1])
            assert deviation_closed_form_paper(a, b, env) == deviation(literal, rho1)


def test_criterion_7_documented_trace_inconsistency(capsys):
    with criterion(7, "printed form trace 1/2 vs canonical trace 1 at gamma=0", 1.0):
        rng = np.random.default_rng(1007)
        env = EnvironmentModel(0, SQRT_HALF, SQRT_HALF)
        for _ in range(100):
            a, b = random_qubit(rng)
            literal_trace = np.trace(reduced_state_paper_literal(a, b, env)).real
            canonical_trace = np.trace(reduced_state(a, b, env).mat).real
            assert abs(literal_trace - 0.5) <= 1e-12
            assert abs(canonical_trace - 1.0) <= 1e-12
        code = main(["paper-check", "--gamma", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace_paper 0.5\n" in out
        assert "trace_canonical 1\n" in out


def test_criterion_8_monotone_decoherence_sweep(tmp_path, capsys):
    with criterion(8, "default sweep: monotone delta, exact endpoints, stable bytes", 1.0):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(["sweep", "--out", str(first)]) == 0
        assert main(["sweep", "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, (float(v) for v in line.split(",")))) for line in lines[1:]]
        assert len(rows) == 101
        deltas = [row["delta_canonical"] for row in rows]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(deltas, deltas[1:]))
        ab = abs(rows[0]["a_re"] * rows[0]["b_re"])
        assert deltas[0] == pytest.approx(np.sqrt(2) * ab, abs=1e-12)
        assert deltas[-1] == pytest.approx(0, abs=1e-12)


def test_criterion_9_sampling_sanity(capsys):
    with criterion(9, "40000-shot run: counts within 3 sigma of 10000", 5.0):
        code = main(["teleport", "--shots", "40000", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        counts = [
            int(line.rsplit(":", 1)[1]) for line in out.splitlines() if line.startswith("outcome")
        ]
        assert len(counts) == 4
        assert sum(counts) == 40000
        sigma = np.sqrt(40000 * 0.25 * 0.75)
        for count in counts:
            assert abs(count - 10000) <= 3 * sigma
