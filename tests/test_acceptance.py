"""End-to-end acceptance battery.

Each test covers one numbered acceptance criterion and prints a single
``[acceptance] criterion N (name): PASS/FAIL`` line (visible under ``pytest -s``).
The reference numbers for the 20x20 grid runs come from an independent
implementation of the same algorithm; random batteries use frozen seeds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    TRACE_BANK,
    assert_exact_bookkeeping,
    boxed_oracle_problem,
    exhaustive_stage_values,
    kkt_minimizer,
    random_problem,
    run_with_states,
)
from hieralm import (
    TRACE_FIELDS,
    GridSpec,
    Mode,
    SigmaPair,
    SigmaSchedule,
    SolverConfig,
    Status,
    approximate_shift,
    approximate_shift_sequence,
    build_instance,
    hierarchical_shift,
    objective_value,
    solve,
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


@pytest.fixture(scope="module")
def feasible_grid_run():
    p, _ = build_instance(GridSpec(20, 20, kappa=0.0))
    t0 = time.perf_counter()
    report = solve(p)
    seconds = time.perf_counter() - t0
    states = run_with_states(p)
    assert [st.record for st in states] == list(report.trace)
    return report, seconds


@pytest.fixture(scope="module")
def controlled_infeasible_run():
    p, _ = build_instance(GridSpec(20, 20, kappa=0.5))
    oracle = hierarchical_shift(p)
    states = run_with_states(p)
    return p, oracle, states


@pytest.fixture(scope="module")
def standard_infeasible_run():
    p, _ = build_instance(GridSpec(20, 20, kappa=0.5))
    states = run_with_states(p, SolverConfig(mode=Mode.STANDARD_AL))
    return states


@pytest.fixture(scope="module")
def shift_battery():
    rng = np.random.default_rng(3)
    random_instances = [random_problem(rng, definite=False) for _ in range(200)]
    rng_boxed = np.random.default_rng(7)
    boxed_instances = [boxed_oracle_problem(rng_boxed) for _ in range(50)]
    return random_instances, boxed_instances


def test_feasible_grid_reproduction(feasible_grid_run):
    report, seconds = feasible_grid_run
    with criterion(1, "feasible grid reproduction"):
        assert report.status is Status.CONVERGED
        last = report.trace[-1]
        assert last.E <= 1e-6
        assert 7 <= last.k <= 11
        rho = [rec.rho for rec in report.trace]
        assert rho[:5] == [1.0, 5.0, 25.0, 125.0, 625.0]
        assert all(v == 625.0 for v in rho[5:])
        assert 52.5 <= last.norm_lambda1 <= 54.7
        assert 20.8 <= last.norm_lambda2 <= 21.6
        assert seconds < 5.0


def test_controlled_infeasible_grid(controlled_infeasible_run):
    _, _, states = controlled_infeasible_run
    with criterion(2, "infeasible grid control"):
        last = states[-1].record
        assert last.E <= 1e-6
        assert last.k <= 12
        r1 = [st.record.r1 for st in states]
        r2 = [st.record.r2 for st in states]
        assert 0.4 <= r1[0] <= 0.6
        assert all(b <= a for a, b in zip(r1, r1[1:]))
        assert all(b <= a for a, b in zip(r2, r2[1:]))
        assert r1[-1] <= 1e-5 and r2[-1] <= 1e-5
        assert abs(last.norm_lambda1 - 53.6) <= 0.02 * 53.6
        assert abs(last.norm_lambda2 - 21.2) <= 0.02 * 21.2


def test_standard_mode_divergence(standard_infeasible_run):
    states = standard_infeasible_run
    with criterion(3, "standard-mode divergence"):
        assert len(states) >= 20
        for k in range(1, 21):
            rec = states[k - 1].record
            assert rec.E > 1e-6
            assert rec.rho == 5.0 ** (k - 1)
        assert states[19].record.rho == pytest.approx(1.9073e13, rel=1e-3)
        assert states[19].record.norm_lambda1 >= 1e12
        assert states[-1].rho > 1e14


def test_weighted_shift_matches_oracle(shift_battery):
    random_instances, _ = shift_battery
    sigma = SigmaPair(1e10, 1.0)
    with criterion(4, "weighted shift agreement"):
        for p in random_instances:
            exact = hierarchical_shift(p).shift
            approx = approximate_shift(p, sigma)
            err = np.linalg.norm(
                np.concatenate([approx.s1 - exact.s1, approx.s2 - exact.s2])
            )
            scale = 1.0 + np.linalg.norm(np.concatenate([exact.s1, exact.s2]))
            assert err <= 1e-5 * scale


def test_lexicographic_brute_force(shift_battery):
    _, boxed_instances = shift_battery
    with criterion(5, "lexicographic brute force"):
        for p in boxed_instances:
            exact = hierarchical_shift(p).shift
            best1, best2 = exhaustive_stage_values(p)
            assert best1 >= float(np.linalg.norm(exact.s1)) - 1e-6
            assert best2 >= float(np.linalg.norm(exact.s2)) - 1e-3


def test_monotone_shift_norms(shift_battery, controlled_infeasible_run):
    random_instances, boxed_instances = shift_battery
    grid_p, grid_oracle, _ = controlled_infeasible_run
    cases = [(p, hierarchical_shift(p)) for p in random_instances + boxed_instances]
    cases.append((grid_p, grid_oracle))
    schedule = SigmaSchedule()
    with criterion(6, "monotone shift norms"):
        for p, oracle in cases:
            shifts = approximate_shift_sequence(p, schedule, 26)
            slack = 1e-8 * (1.0 + float(np.linalg.norm(p.b)))
            n1 = [float(np.linalg.norm(s.s1)) for s in shifts]
            n2 = [float(np.linalg.norm(s.s2)) for s in shifts]
            assert all(b <= a + slack for a, b in zip(n1, n1[1:]))
            assert all(b >= a - slack for a, b in zip(n2, n2[1:]))
            bound = float(np.linalg.norm(oracle.shift.s2)) + slack
            assert all(v <= bound for v in n2)


def test_feasible_mode_equivalence():
    rng = np.random.default_rng(11)
    compared_fields = TRACE_FIELDS[1:] + ("subproblem_grad_norm",)
    with criterion(7, "feasible-mode equivalence"):
        for _ in range(50):
            p = random_problem(rng, feasible=True)
            controlled = run_with_states(p, SolverConfig())
            standard = run_with_states(p, SolverConfig(mode=Mode.STANDARD_AL))
            assert len(controlled) == len(standard)
            for sa, sb in zip(controlled, standard):
                assert sa.record.k == sb.record.k
                for name in compared_fields:
                    delta = abs(getattr(sa.record, name) - getattr(sb.record, name))
                    assert delta <= 1e-8


def test_bookkeeping_invariants():
    rng = np.random.default_rng(21)
    with criterion(8, "bookkeeping invariants"):
        # a dedicated battery on top of the bank: saturating multiplier boxes,
        # non-default growth, both modes
        for i in range(10):
            p = random_problem(rng, feasible=(i % 2 == 0))
            run_with_states(p, SolverConfig(max_iter=12))
            run_with_states(p, SolverConfig(mode=Mode.STANDARD_AL, max_iter=12))
            run_with_states(
                p,
                SolverConfig(
                    box1_lo=-0.05, box1_hi=0.05, box2_lo=-0.02, box2_hi=0.02, max_iter=8
                ),
            )
            run_with_states(p, SolverConfig(gamma=3.0, tau=0.5, max_iter=10))
        assert len(TRACE_BANK) >= 40
        saturated = False
        for cfg, states in TRACE_BANK:
            assert_exact_bookkeeping(cfg, states)
            for st in states:
                if not np.array_equal(st.lambda1, st.lambda1_hat):
                    saturated = True
                if not np.array_equal(st.lambda2, st.lambda2_hat):
                    saturated = True
        assert saturated, "no banked run ever engaged the multiplier box"


def test_hierarchical_optimality_of_solution(controlled_infeasible_run):
    p, oracle, states = controlled_infeasible_run
    with criterion(9, "hierarchical optimality"):
        x = states[-1].x
        s1, s2 = oracle.shift.s1, oracle.shift.s2
        feas = float(
            np.linalg.norm(p.A1 @ x - p.b1 + s1) + np.linalg.norm(p.A2 @ x - p.b2 + s2)
        )
        assert feas <= 1e-5
        x_star, _, _ = kkt_minimizer(p, s1, s2)
        f_oracle = objective_value(p, x_star)
        f_final = objective_value(p, x)
        assert abs(f_final - f_oracle) <= 1e-4 * (1.0 + abs(f_oracle))
