"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come. Every tolerance is pinned here; the runtime budgets are asserted too.
"""

import time

import numpy as np

from hlflock.diagnostics import (ConsensusSeries, ball_invariance_probe,
                                 calibrate_step_slack, check_two_flock_bound,
                                 consensus_series, fit_decay_rate,
                                 free_will_consensus_probe, history_speed_bound,
                                 lyapunov_probe, positivity_probe)
from hlflock.integrator import simulate
from hlflock.oracle import simulate_oracle
from hlflock.model import (DelayKernel, HistorySpec, LeaderForcing,
                           LeadershipDag, Potential, Scenario,
                           check_forcing_conditions)
from hlflock.scenarios import GeneratorSpec, generate


def report(number: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    line = (f"ACCEPTANCE {number} [{'PASS' if ok and elapsed < budget else 'FAIL'}] "
            f"{name}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def two_flock_scenario(dt=0.01, t_end=50.0):
    # N=2, d=2, psi = (1+s^2)^(-1/2), uniform kernel of unit mass, tau = 0.1,
    # constant histories with unit initial velocity gap
    return Scenario(dag=LeadershipDag.chain(2), dim=2,
                    potential=Potential.cucker_smale(0.5),
                    kernel=DelayKernel.uniform(0.1),
                    history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.0]],
                                                 [[0.0, 0.0], [0.0, 1.0]]),
                    t_end=t_end, dt=dt)


def test_criterion_1_two_flock_exponential_envelope():
    start = time.perf_counter()
    scen = two_flock_scenario()
    traj = simulate(scen)
    result = check_two_flock_bound(traj, tol=1e-6)
    elapsed = time.perf_counter() - start
    detail = (f"max excess over envelope {result.details['max_excess']:.3e}, "
              f"rate {result.details['rate']:.4f}, "
              f"discrete rate {result.details['discrete_rate']:.4f}")
    report(1, "two-flock exponential envelope", result.passed, detail, elapsed, 1.0)


def test_criterion_2_hierarchical_flocking():
    start = time.perf_counter()
    scen = Scenario(dag=LeadershipDag.chain(5), dim=1,
                    potential=Potential.cucker_smale(0.5),
                    kernel=DelayKernel.uniform(0.1, height=3.0),
                    history=HistorySpec.constant(
                        [[0.0], [0.3], [0.6], [0.9], [1.2]],
                        [[0.45], [0.40], [0.50], [0.42], [0.48]]),
                    t_end=100.0, dt=0.01)
    series = consensus_series(simulate(scen))
    dv = series.velocity_diameter
    contraction = dv[-1] / dv[0]
    fit = fit_decay_rate(series, window=(max(scen.tau, scen.t_end / 2), scen.t_end))
    quarter = series.times >= 0.75 * scen.t_end
    dx_variation = float(series.position_diameter[quarter].max()
                         - series.position_diameter[quarter].min())
    ok = (contraction <= 1e-6 and fit.rate > 0.0 and fit.residual_rms < 0.1
          and dx_variation < 1e-6)
    elapsed = time.perf_counter() - start
    detail = (f"diameter contraction {contraction:.2e}, rate {fit.rate:.3f}, "
              f"rms {fit.residual_rms:.3f}, position settle {dx_variation:.2e}")
    report(2, "5-chain hierarchical flocking", ok, detail, elapsed, 5.0)


def test_criterion_3_positivity_suite():
    start = time.perf_counter()
    worst = np.inf
    for seed in range(100):
        spec = GeneratorSpec(topology="random_hl", n_agents=2 + seed % 5, dim=1,
                             velocity_range=(0.0, 1.0), rng_seed=seed)
        result = positivity_probe(simulate(generate(spec)))
        worst = min(worst, result.details["min_value"])
        assert result.passed, f"seed {seed}: {result.to_text()}"
    elapsed = time.perf_counter() - start
    report(3, "positivity over 100 random scalar flocks", worst >= -1e-8,
           f"worst minimum {worst:.3e}", elapsed, 30.0)


def test_criterion_4_ball_and_hull_invariance_suite():
    start = time.perf_counter()
    worst_speed, worst_hull = -np.inf, -np.inf
    for seed in range(100):
        spec = GeneratorSpec(topology="random_hl", n_agents=2 + seed % 5,
                             dim=1 + seed % 3, rng_seed=seed)
        result = ball_invariance_probe(simulate(generate(spec)))
        worst_speed = max(worst_speed, result.details["speed_excess"])
        worst_hull = max(worst_hull, result.details["hull_excess"])
        assert result.passed, f"seed {seed}: {result.to_text()}"
    ok = worst_speed <= 1e-8 and worst_hull <= 1e-8
    elapsed = time.perf_counter() - start
    report(4, "speed ball and hull invariance over 100 random flocks", ok,
           f"worst ball excess {worst_speed:.2e}, worst hull excess {worst_hull:.2e}",
           elapsed, 60.0)


def test_criterion_5_oracle_equivalence_and_order():
    start = time.perf_counter()
    discrepancy = {}
    for dt in (0.01, 0.005):
        scen = two_flock_scenario(dt=dt)
        discrepancy[dt] = float(np.abs(simulate(scen).v
                                       - simulate_oracle(scen, 50).v).max())
    ratio = discrepancy[0.01] / discrepancy[0.005]
    ok = discrepancy[0.01] <= 5e-3 and ratio >= 1.8
    elapsed = time.perf_counter() - start
    detail = (f"Heun-vs-oracle gap {discrepancy[0.01]:.2e} (<= 5e-3), "
              f"halving ratio {ratio:.2f} (>= 1.8)")
    report(5, "independent-scheme cross-validation", ok, detail, elapsed, 10.0)


def test_criterion_6_free_will_leader():
    start = time.perf_counter()
    forcing = LeaderForcing.power_law(0.5, 3.0, dim=2)  # exponent > N-1 = 2
    scen = Scenario(dag=LeadershipDag.chain(3), dim=2,
                    potential=Potential.cucker_smale(0.5),
                    kernel=DelayKernel.uniform(0.1),
                    history=HistorySpec.constant(
                        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
                        [[0.0, 0.3], [0.2, 0.1], [-0.1, 0.2]]),
                    forcing=forcing, t_end=200.0, dt=0.01)
    traj = simulate(scen)
    final_dv = float(consensus_series(traj).velocity_diameter[-1])
    root_speed = float(np.linalg.norm(traj.v[:, 0, :], axis=1).max())
    cap = float(np.linalg.norm(traj.v[0, 0, :])) + forcing.l1_norm()
    probe = free_will_consensus_probe(traj)
    admissible = check_forcing_conditions(forcing, 3)
    shallow = check_forcing_conditions(LeaderForcing.power_law(0.5, 0.5, dim=2), 3)
    ok = (final_dv <= 1e-3 and root_speed <= cap + 1e-8 and probe.passed
          and admissible.all_satisfied
          and not (shallow.integrable or shallow.little_o_condition or shallow.weighted_L1))
    elapsed = time.perf_counter() - start
    detail = (f"final diameter {final_dv:.2e}, root speed {root_speed:.4f} "
              f"<= cap {cap:.4f}, admissibility flags correct")
    report(6, "forced-root consensus", ok, detail, elapsed, 5.0)


def test_criterion_7_dissipation_functionals():
    start = time.perf_counter()
    scen = two_flock_scenario()
    traj = simulate(scen)
    slack = calibrate_step_slack(traj)
    gain = scen.kernel.mu0
    offset = 2.0 * scen.tau * history_speed_bound(traj)
    result = lyapunov_probe(traj, gain=gain, offset=offset, tol=1e-6, slack=slack)
    elapsed = time.perf_counter() - start
    detail = (f"max forward difference {result.details['max_forward_difference']:.3e} "
              f"<= {result.details['tolerance']:.3e}")
    report(7, "dissipation functionals never increase", result.passed, detail, elapsed, 1.0)


def test_criterion_8_decay_fit_calibration():
    start = time.perf_counter()
    errors = {}
    for rate, t_end in ((0.1, 20.0), (1.0, 10.0), (5.0, 4.0)):
        t = np.linspace(0.0, t_end, 1001)
        series = ConsensusSeries(times=t, velocity_diameter=np.exp(-rate * t),
                                 position_diameter=np.ones_like(t))
        fit = fit_decay_rate(series, window=(0.0, t_end))
        errors[rate] = abs(fit.rate - rate)
    ok = all(err <= 1e-6 for err in errors.values())
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"B={r}: err {e:.1e}" for r, e in errors.items())
    report(8, "planted decay rates recovered", ok, detail, elapsed, 1.0)
