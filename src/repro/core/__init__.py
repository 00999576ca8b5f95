"""The paper's primary contribution: tomography on correlated links.

Public surface:

* data model — :class:`Link`, :class:`Path`, :class:`Topology`,
  :class:`TopologyBuilder`, :class:`CorrelationStructure`;
* identifiability — :func:`check_assumption4`,
  :func:`structurally_unidentifiable_nodes`, merge transformations;
* inference — :class:`TheoremAlgorithm` (exact),
  :func:`infer_congestion` (practical, Section 4),
  :func:`infer_congestion_independent` (baseline [12]),
  :func:`infer_congestion_single_path` (classic variant),
  localization extensions.
"""

from repro.core.builder import TopologyBuilder
from repro.core.correlation import CorrelationStructure
from repro.core.correlation_algorithm import (
    AlgorithmOptions,
    CorrelationTomography,
    infer_congestion,
)
from repro.core.equations import EquationRow, EquationSystem, build_equations
from repro.core.factors import CongestionFactors
from repro.core.identifiability import (
    IdentifiabilityReport,
    check_assumption4,
    structurally_unidentifiable_nodes,
    unidentifiable_links_structural,
)
from repro.core.independence_algorithm import infer_congestion_independent
from repro.core.link import Link, Path
from repro.core.localization import (
    LocalizationResult,
    localize_map,
    localize_smallest_set,
)
from repro.core.nguyen_thiran import infer_congestion_single_path
from repro.core.prepared import (
    DEFAULT_REGISTRY,
    PreparedRegistry,
    PreparedTopology,
    get_prepared,
    use_registry,
)
from repro.core.results import InferenceResult
from repro.core.streaming import (
    EquationTemplate,
    StreamingTomography,
    WindowVerdict,
)
from repro.core.solvers import solve, solve_l1
from repro.core.theorem import TheoremAlgorithm, TheoremResult
from repro.core.topology import Topology
from repro.core.transform import (
    TransformResult,
    merge_correlated_node,
    merge_indistinguishable_links,
    transform_until_identifiable,
)

__all__ = [
    "Link",
    "Path",
    "Topology",
    "TopologyBuilder",
    "CorrelationStructure",
    "IdentifiabilityReport",
    "check_assumption4",
    "structurally_unidentifiable_nodes",
    "unidentifiable_links_structural",
    "TransformResult",
    "merge_correlated_node",
    "merge_indistinguishable_links",
    "transform_until_identifiable",
    "CongestionFactors",
    "TheoremAlgorithm",
    "TheoremResult",
    "EquationRow",
    "EquationSystem",
    "build_equations",
    "PreparedTopology",
    "PreparedRegistry",
    "DEFAULT_REGISTRY",
    "get_prepared",
    "use_registry",
    "solve",
    "solve_l1",
    "AlgorithmOptions",
    "CorrelationTomography",
    "infer_congestion",
    "infer_congestion_independent",
    "infer_congestion_single_path",
    "InferenceResult",
    "EquationTemplate",
    "StreamingTomography",
    "WindowVerdict",
    "LocalizationResult",
    "localize_map",
    "localize_smallest_set",
]
