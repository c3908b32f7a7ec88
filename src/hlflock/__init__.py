"""Simulation and verification toolkit for delayed flocking under
hierarchical leadership.

The library integrates a Cucker-Smale-type consensus model in which every
non-root agent adjusts its velocity toward the recent past of its leaders,
with the past weighted by a delay kernel over a sliding window, and checks
the qualitative guarantees of that model (velocity positivity and
boundedness, exponential consensus, admissible root forcing) as quantitative
probes on simulated trajectories.
"""

from .model import (
    DelayKernel,
    ForcingConditions,
    HistoryFn,
    HistorySpec,
    LeaderForcing,
    LeadershipDag,
    Potential,
    Scenario,
    ScenarioError,
    TailReport,
    ValidationReport,
    check_divergent_tail,
    check_forcing_conditions,
    eval_potential,
    leader_levels,
    validate_hierarchy,
)
from .integrator import (
    BlowUpError,
    FlockState,
    Trajectory,
    read_trajectory_csv,
    simulate,
    simulate_oracle,
    write_trajectory_csv,
)
from .diagnostics import (
    ConsensusSeries,
    DecayFit,
    HatLeaderSeries,
    InsufficientDataError,
    PreconditionError,
    ProbeReport,
    ball_invariance_probe,
    calibrate_step_slack,
    check_two_flock_bound,
    consensus_series,
    fit_decay_rate,
    free_will_consensus_probe,
    hat_leader_series,
    history_speed_bound,
    lyapunov_probe,
    positivity_probe,
)
from .scenarios import (
    GeneratorSpec,
    generate,
    load_scenario,
    save_run,
    save_scenario,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
