"""Joint uplink/downlink bandwidth and power optimization for
decoupled-access heterogeneous networks.

The package namespace holds only the library surface: the names of the
README's library example, the scenario types and ``SolveOptions``.  Every
other name is imported from its module (``flexlink.optimizer`` and so on).
"""

__version__ = "0.1.0"

from .association import Policy, associate
from .interference import Problem, g2, utility
from .model import BaseStation, Scenario, UserTerminal
from .optimizer import SolveOptions, minimize_power, optimize
from .scenario import ScenarioConfig, generate, uniform_overlap

__all__ = [name for name in dir() if not name.startswith("_")]
