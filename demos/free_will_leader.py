#!/usr/bin/env python3
"""A root agent that keeps maneuvering, and what it takes to still flock.

Here agent 1 does not hold a fixed velocity: an exogenous acceleration keeps
pushing it. Consensus survives only if that acceleration fades fast enough
relative to the depth of the hierarchy. This script tabulates the
admissibility flags for several profiles in a 3-agent chain, then runs one
admissible case and confirms that the flock still collapses onto the (now
curved) trajectory of the leader, with the root speed capped by its initial
speed plus the total impulse, and with the velocity hull never widening by
more than twice the impulse since any earlier time.
"""

import numpy as np

from hlflock import (DelayKernel, HistorySpec, LeaderForcing, LeadershipDag,
                     Potential, Scenario, simulate)
from hlflock.model import check_forcing_conditions
from hlflock.diagnostics import consensus_series, free_will_consensus_probe

N_AGENTS = 3


def flag(b):
    return "yes" if b else "no "


def main():
    candidates = [
        ("power 1/(1+t)^3.0", LeaderForcing.power_law(0.5, 3.0, dim=2)),
        ("power 1/(1+t)^2.0", LeaderForcing.power_law(0.5, 2.0, dim=2)),
        ("power 1/(1+t)^0.5", LeaderForcing.power_law(0.5, 0.5, dim=2)),
        ("log-damped (N=3) ", LeaderForcing.log_damped(0.5, N_AGENTS, dim=2)),
    ]
    print(f"admissibility for a flock of {N_AGENTS} (needs decay beyond power {N_AGENTS - 1}):")
    print("  profile              integrable  fast-decay  weighted-L1")
    for name, forcing in candidates:
        cond = check_forcing_conditions(forcing, N_AGENTS)
        print(f"  {name}   {flag(cond.integrable)}         {flag(cond.little_o_condition)}"
              f"        {flag(cond.weighted_L1)}")

    forcing = LeaderForcing.power_law(0.5, 3.0, dim=2)
    scenario = Scenario(
        dag=LeadershipDag.chain(N_AGENTS),
        dim=2,
        potential=Potential.cucker_smale(0.5),
        kernel=DelayKernel.uniform(0.1),
        history=HistorySpec.constant(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
            [[0.0, 0.3], [0.2, 0.1], [-0.1, 0.2]]),
        forcing=forcing,
        t_end=200.0,
        dt=0.01,
    )
    print(f"\nrunning the admissible case (total impulse {forcing.l1_norm():.3f})")
    traj = simulate(scenario)
    series = consensus_series(traj)
    for t_mark in (0.0, 10.0, 50.0, 200.0):
        k = int(np.searchsorted(series.times, t_mark))
        print(f"  t={t_mark:6.1f}: velocity diameter {series.velocity_diameter[k]:.3e}")

    probe = free_will_consensus_probe(traj)
    print(probe.to_text())
    print(f"  root speed stayed <= {probe.details['root_speed_cap']:.4f} "
          f"(max seen {probe.details['max_root_speed']:.4f})")
    print(f"  velocity hull stayed {-probe.details['hull_excess']:.3e} inside its "
          f"bound at its closest")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    for agent in range(N_AGENTS):
        ax1.plot(traj.x[:, agent, 0], traj.x[:, agent, 1], label=f"agent {agent + 1}")
    ax1.set_xlabel("x")
    ax1.set_ylabel("y")
    ax1.set_title("positions")
    ax1.legend(fontsize=8)
    ax2.semilogy(series.times, np.maximum(series.velocity_diameter, 1e-16))
    ax2.set_xlabel("t")
    ax2.set_ylabel("velocity diameter")
    fig.tight_layout()
    fig.savefig("free_will_leader.png", dpi=130)
    print("wrote free_will_leader.png")


if __name__ == "__main__":
    main()
