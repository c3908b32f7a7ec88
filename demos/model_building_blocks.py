#!/usr/bin/env python3
"""Tour of the model ingredients before any integration happens.

Walks through the hierarchy structure (validation, leader levels), the
interaction potentials and their tail behavior, the delay-kernel shapes and
masses, and the two independent integration schemes agreeing on the same
problem.
"""

import numpy as np

from hlflock import (DelayKernel, HistorySpec, LeadershipDag, Potential,
                     Scenario, simulate, simulate_oracle)
from hlflock.model import check_divergent_tail, leader_levels, validate_hierarchy


def main():
    # --- hierarchy -------------------------------------------------------
    dag = LeadershipDag(6, {2: {1}, 3: {1}, 4: {2, 3}, 5: {4}, 6: {4, 5}})
    print("hierarchy:", dag)
    print("valid:", validate_hierarchy(dag).ok)
    levels, closure = leader_levels(dag, 6)
    print("leader levels of agent 6:", [sorted(s) for s in levels])
    print("all agents it depends on:", sorted(closure))

    broken = LeadershipDag(3, {3: {1}})   # agent 2 left leaderless
    print("a broken hierarchy reports:", validate_hierarchy(broken).violations)

    # --- potentials and the divergent-tail condition ----------------------
    print("\npotential tails (divergent tail <=> unconditional flocking):")
    for beta in (0.25, 0.5, 0.75):
        verdict = check_divergent_tail(Potential.cucker_smale(beta)).verdict
        print(f"  (1+s^2)^-{beta}: divergent integral? {verdict}")
    table = Potential.table([0.0, 1.0, 10.0], [1.0, 0.6, 0.3])
    print(f"  tabulated, flat at 0.3 beyond s=10: divergent integral? "
          f"{check_divergent_tail(table).verdict}")
    custom = Potential.custom(lambda s: 1.0 / (1.0 + s))
    evidence = check_divergent_tail(custom, horizon=1e6)
    print(f"  custom 1/(1+s): {evidence.verdict}; partial integrals "
          + ", ".join(f"[0,{s:.0e}]={v:.1f}" for s, v in evidence.partial_integrals[-3:]))

    # --- delay kernels -----------------------------------------------------
    print("\nkernel masses over a window of 0.2 time units:")
    for kernel in (DelayKernel.uniform(0.2),
                   DelayKernel.triangular(0.2),
                   DelayKernel.truncated_bump(0.2),
                   DelayKernel.table([0.0, 0.15, 0.2], [0.0, 2.0, 0.0])):
        print(f"  {kernel.shape:>14}: mass {kernel.mu0:.6f}")

    # --- two schemes, one answer -------------------------------------------
    scenario = Scenario(
        dag=LeadershipDag(3, {2: {1}, 3: {1, 2}}),
        dim=2,
        potential=Potential.cucker_smale(0.5),
        kernel=DelayKernel.triangular(0.2),
        history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.2], [0.5, -0.4]],
                                     [[0.3, 0.0], [0.0, 0.4], [0.5, 0.1]]),
        t_end=5.0,
        dt=0.02,
    )
    heun = simulate(scenario)
    euler = simulate_oracle(scenario, refinement=20)
    gap = np.abs(heun.v - euler.v).max()
    print(f"\nHeun stepper vs refined Euler oracle, max velocity gap: {gap:.2e}")
    print("final velocities (Heun):")
    for agent in range(3):
        print(f"  agent {agent + 1}: {np.round(heun.v[-1, agent], 6)}")


if __name__ == "__main__":
    main()
