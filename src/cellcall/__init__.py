"""Simulation and verification suite for deterministic online call admission
control on hexagonal cellular networks."""

__version__ = "0.1.0"

from .hexnet import COLORS, Cell, Network, color_of, is_triangle_free  # noqa: F401
from .offline import OptimumWitness, clique_upper_bound, exact_optimum  # noqa: F401
from .online import make_algorithm, run_sequence  # noqa: F401
