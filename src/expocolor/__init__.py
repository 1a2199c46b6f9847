"""Explicit per-vertex colorings of exponential graphs over odd cycles.

The package splits into arithmetic on odd cycles (:mod:`.winding`),
exponential-graph construction (:mod:`.expo`), the O(n) coloring
routines (:mod:`.coloring`), host-graph utilities (:mod:`.graphs`),
brute-force verification (:mod:`.verify`), and a timing harness
(:mod:`.bench`).  The :mod:`.cli` module exposes everything as the
``expocolor`` command.
"""

from .coloring import (
    Branch,
    ColorVerdict,
    CycleCache,
    color_graph_baseline,
    color_in_kh,
    color_rows,
    color_vertex,
    color_vertex_ck,
    even_class_subgraph,
    find_even_cycle,
)
from .errors import (
    CapacityError,
    InvariantViolationError,
    IsolatedFunctionError,
    NoEvenCycleError,
    ParityDomainError,
)
from .expo import (
    Assignment,
    ComponentClass,
    ExpoGraph,
    build_exponential,
    is_isolated,
    neighbors,
    restrict,
)
from .graphs import (
    CycleWitness,
    Graph,
    bipartition,
    chromatic_number_exact,
    is_proper_coloring,
    load_graph,
    make_complete,
    make_cycle,
    make_grotzsch,
    make_mycielski,
    odd_cycle_in,
    odd_cycles,
    save_graph,
)
from .verify import VerificationReport
from .winding import (
    FAR,
    Half,
    OddCycleCtx,
    chord_order,
    delta3,
    delta_k,
    fixed_points,
    in_even_class,
    label,
    little_path,
    orient_edge,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Branch",
    "CapacityError",
    "ColorVerdict",
    "ComponentClass",
    "CycleCache",
    "CycleWitness",
    "ExpoGraph",
    "FAR",
    "Graph",
    "Half",
    "InvariantViolationError",
    "IsolatedFunctionError",
    "NoEvenCycleError",
    "OddCycleCtx",
    "ParityDomainError",
    "VerificationReport",
    "bipartition",
    "build_exponential",
    "chord_order",
    "chromatic_number_exact",
    "color_graph_baseline",
    "color_in_kh",
    "color_rows",
    "color_vertex",
    "color_vertex_ck",
    "delta3",
    "delta_k",
    "even_class_subgraph",
    "find_even_cycle",
    "fixed_points",
    "in_even_class",
    "is_isolated",
    "is_proper_coloring",
    "label",
    "little_path",
    "load_graph",
    "make_complete",
    "make_cycle",
    "make_grotzsch",
    "make_mycielski",
    "neighbors",
    "odd_cycle_in",
    "odd_cycles",
    "orient_edge",
    "restrict",
    "save_graph",
    "__version__",
]
