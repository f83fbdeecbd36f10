"""Placement and power allocation for a single antenna pinched onto a waveguide.

Closed-form solvers for downlink max-min fairness, total-power minimization,
two-user throughput with rate floors, two-user superposition coding, and
two-user outage probability, each paired with a brute-force oracle that can
certify it on any instance.
"""

from .core import (
    LayoutBlock,
    NomaRates,
    PlacementSolution,
    SystemParams,
    bpcu_to_nats,
    dbm_to_watt,
    nats_to_bpcu,
    noma_rates,
    oma_rate,
    path_gain,
    squared_distance,
    watt_to_dbm,
)
from .errors import (
    CertificationError,
    ConfigError,
    DomainError,
    Infeasible,
    NonFinite,
    ParseError,
    PinchError,
)
from .experiments import ExperimentConfig, run_experiment, sample_layout
from .noma import NomaSolution
from .oma_fairness import (
    conventional_max_min_rate,
    conventional_min_total_power,
    pinching_power_saving,
    solve_max_min_rate,
    solve_min_total_power,
)
from .oma_greedy import (
    best_placement_high_snr,
    best_placement_search,
    split_power,
)
from .oracle import GridSpec, certification_grid, grid_optimize, power_split_sweep
from .outage import OutageEstimate, closed_form_outage, monte_carlo_outage, outage_rate

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "ConfigError",
    "DomainError",
    "ExperimentConfig",
    "GridSpec",
    "Infeasible",
    "LayoutBlock",
    "NomaRates",
    "NomaSolution",
    "NonFinite",
    "OutageEstimate",
    "ParseError",
    "PinchError",
    "PlacementSolution",
    "SystemParams",
    "best_placement_high_snr",
    "best_placement_search",
    "bpcu_to_nats",
    "certification_grid",
    "closed_form_outage",
    "conventional_max_min_rate",
    "conventional_min_total_power",
    "dbm_to_watt",
    "grid_optimize",
    "monte_carlo_outage",
    "nats_to_bpcu",
    "noma_rates",
    "oma_rate",
    "outage_rate",
    "path_gain",
    "pinching_power_saving",
    "power_split_sweep",
    "run_experiment",
    "sample_layout",
    "solve_max_min_rate",
    "solve_min_total_power",
    "split_power",
    "squared_distance",
    "watt_to_dbm",
]
