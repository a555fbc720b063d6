"""Survivable two-layer network design: MPLS LSPs groomed onto lightpaths.

The package designs minimum-cost logical topologies under several
survivability options, verifies the finished designs independently of the
optimization models, and replays single-failure events against them.
"""

from .evaluate import (
    DrillReport,
    EventOutcome,
    failure_drill,
    verify_design,
)
from .instances import (
    four_node_ring,
    four_node_ring_chord,
    five_node_ring_chord,
    generate_instance,
    load_instance,
    save_instance,
)
from .model import (
    Approach,
    CostModel,
    Design,
    DesignConfig,
    Instance,
    InvalidInstanceError,
    LspDemand,
    PhysicalTopology,
    Survivability,
    TrafficMatrix,
    Violation,
    validate_instance,
)
from .pipeline import (
    DecodeError,
    PipelineError,
    SolverUnavailableError,
    StageInfeasibleError,
    run_design,
)
from .serialize import (
    design_from_dict,
    design_to_dict,
    load_design,
    manifest_dict,
    save_design,
)

__version__ = "0.1.0"

__all__ = [
    "Approach",
    "CostModel",
    "DecodeError",
    "Design",
    "DesignConfig",
    "DrillReport",
    "EventOutcome",
    "Instance",
    "InvalidInstanceError",
    "LspDemand",
    "PhysicalTopology",
    "PipelineError",
    "SolverUnavailableError",
    "StageInfeasibleError",
    "Survivability",
    "TrafficMatrix",
    "Violation",
    "design_from_dict",
    "design_to_dict",
    "failure_drill",
    "four_node_ring",
    "four_node_ring_chord",
    "five_node_ring_chord",
    "generate_instance",
    "load_design",
    "load_instance",
    "manifest_dict",
    "run_design",
    "save_design",
    "save_instance",
    "validate_instance",
    "verify_design",
    "__version__",
]
