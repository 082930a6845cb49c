"""Reversible Markov chains as electric networks.

Exact harmonic (Dirichlet) solving on finite weighted graphs, discrete
flow calculus with energy minimization checks, closed forms for the
simple random walk on the homogeneous tree, and a seeded Monte Carlo
walker -- cross-validated three ways (closed form / solver / simulation).
"""

from . import errors
from .flows import (
    adjointness_residual,
    apply_d,
    apply_d_star,
    chi,
    current_flow,
    decompose_star_cycle,
    energy,
    inner_r,
    thomson_gap,
    validate_flow,
    verify_kirchhoff,
)
from .generators import FiniteBallGenerator, GraphGenerator, HalfLineGenerator, exhaustion
from .harmonic import (
    BoundarySpec,
    EffectiveQuantities,
    LimitResult,
    effective,
    green_function,
    hitting_probability,
    ohm_current,
    resistance_to_infinity,
    solve_dirichlet,
    unit_voltage,
)
from .network import Network, build_network, network_from_json, network_to_json
from .tree import (
    TreeGenerator,
    TreeNetwork,
    TreeSpec,
    build_tree,
    finite_tree_pair_resistance,
    first_at_depth,
    level_slice,
    oracle_finite_escape,
    oracle_green_hitting,
    oracle_potential_current,
    oracle_resistance,
    oracle_table,
    tree_distance,
    tree_vertex_count,
)
from .verify import RunReport, run_battery
from .walks import (
    WalkConfig,
    WalkStats,
    estimate_escape,
    run_walks,
)

__version__ = "0.1.0"
