"""Joint uplink/downlink bandwidth and power optimization for
decoupled-access heterogeneous networks."""

__version__ = "0.1.0"

from .association import Policy, associate, policy_sweep, rsrp
from .fixedpoint import (
    FixedPointResult,
    check_sif_axioms,
    normalized_fixed_point,
    yates_iteration,
)
from .interference import (
    Problem,
    f_load,
    f_power,
    f_power_cell,
    g1,
    g2,
    g2_bar,
    link_rates,
    qos_levels,
    sinr,
    spectral_efficiency,
    utility,
)
from .model import (
    Association,
    BaseStation,
    CouplingModel,
    OverlapModel,
    Scenario,
    UserTerminal,
    apply_overlap,
    build_coupling,
)
from .optimizer import (
    SolveOptions,
    Solution,
    SolveTrace,
    initial_psd,
    linear_reformulation_check,
    minimize_power,
    optimize,
    step1_update_bandwidth,
    step2_power_scaling,
    step3_update_power,
)
from .scenario import ScenarioConfig, estimate_overlap, generate, uniform_overlap

__all__ = [name for name in dir() if not name.startswith("_")]
