"""Contact-plan routing laboratory.

Store-carry-and-forward routing over scheduled contact plans: route
search over the time-varying topology, deadline-aware forwarding under
two selection policies, a deterministic state-stepped simulator, an
optimal multi-commodity flow bound, and a sweep harness for congestion
studies.
"""

__version__ = "0.1.0"

from .contact_plan import (
    Contact,
    ContactPlan,
    NodeSpec,
    StateGrid,
    TopologyConfig,
    generate_random_topology,
    parse_contact_plan,
    serialize_contact_plan,
    validate,
)
from .contact_graph import (
    Route,
    RouteTable,
    build_route_table,
    earliest_delivery_route,
    k_best_routes,
)
from .forwarding import CapacityLedger, Policy
from .simulator import (
    Demand,
    Metrics,
    SimResult,
    compute_metrics,
    run_simulation,
)
from .lp_oracle import (
    Commodity,
    LpProblem,
    LpSession,
    LpSolution,
    build_lp,
    demands_to_commodities,
    lp_metrics,
    solve_lp,
    verify_solution,
)
from .experiments import (
    ScenarioConfig,
    SweepResult,
    build_scenario,
    run_sweep,
    summarize,
)
