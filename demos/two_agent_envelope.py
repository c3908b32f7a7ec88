#!/usr/bin/env python3
"""Two agents, one leader: the velocity gap under its exponential envelope.

The follower constantly steers toward where its leader *was* over the last
tau time units. Despite the lag, the velocity gap dies exponentially, and an
explicit envelope for it can be computed from the run itself: the decay rate
is the kernel mass times the potential evaluated at a worst-case separation.
The Heun stepper obeys a discrete form of it, one contraction factor per step,
which the probe checks up to rounding.

This script runs the pair, checks the discrete envelope at every stored
step, prints its rate beside the continuous one, fits the empirical decay
rate, and (if matplotlib is importable) saves a picture comparing gap and
envelope.
"""

import numpy as np

from hlflock import (DelayKernel, HistorySpec, LeadershipDag, Potential,
                     Scenario, simulate)
from hlflock.diagnostics import check_two_flock_bound, consensus_series, fit_decay_rate


def main():
    scenario = Scenario(
        dag=LeadershipDag.chain(2),
        dim=2,
        potential=Potential.cucker_smale(0.5),
        kernel=DelayKernel.uniform(0.1),          # unit mass over [0, 0.1]
        history=HistorySpec.constant([[0.0, 0.0], [1.0, 0.0]],
                                     [[0.0, 0.0], [0.0, 1.0]]),
        t_end=50.0,
        dt=0.01,
    )
    print("leader drifts at velocity (0, 0); follower starts at (0, 1)")
    traj = simulate(scenario)

    gap = np.linalg.norm(traj.v[:, 1, :] - traj.v[:, 0, :], axis=1)
    print(f"velocity gap: 1.0 at t=0 -> {gap[-1]:.3e} at t={traj.times[-1]:g}")

    bound = check_two_flock_bound(traj)
    print(bound.to_text())
    print(f"  worst-case separation seen: {bound.details['y_m']:.3f} "
          f"-> continuous envelope rate {bound.details['rate']:.4f}")
    print(f"  largest window distance: {bound.details['y_window']:.3f} "
          f"-> discrete envelope rate {bound.details['discrete_rate']:.4f} (Heun's own)")

    fit = fit_decay_rate(consensus_series(traj), window=(25.0, 50.0))
    print(f"empirical decay rate on [25, 50]: {fit.rate:.4f} "
          f"(the discrete envelope guarantees at least {bound.details['discrete_rate']:.4f})")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return
    t = bound.series["times"]
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.semilogy(t, bound.series["gap"], label="velocity gap")
    ax.semilogy(t, bound.series["envelope"], "--", label="exponential envelope")
    ax.set_xlabel("t")
    ax.set_ylabel("|v2 - v1|")
    ax.legend()
    fig.tight_layout()
    fig.savefig("two_agent_envelope.png", dpi=130)
    print("wrote two_agent_envelope.png")


if __name__ == "__main__":
    main()
