"""Explicit per-vertex colorings of exponential graphs over odd cycles.

The package splits into arithmetic on odd cycles (:mod:`.winding`),
exponential-graph construction (:mod:`.expo`), the O(n) coloring
routines (:mod:`.coloring`), host-graph utilities (:mod:`.graphs`),
brute-force verification (:mod:`.verify`), and a timing harness
(:mod:`.bench`).  The :mod:`.cli` module exposes everything as the
``expocolor`` command.

Imports are on demand.  ``import expocolor`` loads no submodule and no
numpy: each public name is looked up in ``_PUBLIC``, and the first
access imports the submodule that owns it (PEP 562) and keeps the name
here.  A submodule loads only what it imports itself:

* :mod:`.errors` loads nothing, and :mod:`.graphs` only :mod:`.errors`
  (no numpy);
* :mod:`.winding` loads :mod:`.errors`, and numpy only when its kernel
  first runs (a cycle context and the scalar routines need none);
* :mod:`.expo` loads numpy and :mod:`.graphs`;
* :mod:`.coloring` loads :mod:`.expo` and :mod:`.winding`, and
  :mod:`.verify` and :mod:`.bench` load :mod:`.coloring`;
* :mod:`.cli` loads every submodule but :mod:`.bench`.

Two imports stay eager on purpose.  :mod:`.cli` loads :mod:`.verify` up
front because a tracer that rebinds functions in the modules already
loaded when it installs (as ``perfbench``'s does, right after
``import expocolor.cli``) finds the verifiers only there.  :mod:`.coloring`
binds the :mod:`.expo` and :mod:`.graphs` functions it calls at import,
so that patching a name such as ``coloring.bipartition`` reaches every
call.
"""

import importlib

__version__ = "0.1.0"

# owning submodule -> the public names it defines
_PUBLIC = {
    "coloring": (
        "Branch",
        "ColorVerdict",
        "CycleCache",
        "color_graph_baseline",
        "color_in_kh",
        "color_rows",
        "color_vertex",
        "color_vertex_ck",
        "even_class_subgraph",
        "find_even_cycle",
    ),
    "errors": (
        "CapacityError",
        "InvariantViolationError",
        "IsolatedFunctionError",
        "NoEvenCycleError",
        "ParityDomainError",
    ),
    "expo": (
        "Assignment",
        "ComponentClass",
        "ExpoGraph",
        "build_exponential",
        "is_isolated",
        "neighbors",
        "restrict",
    ),
    "graphs": (
        "CycleWitness",
        "Graph",
        "bipartition",
        "chromatic_number_exact",
        "is_proper_coloring",
        "load_graph",
        "make_complete",
        "make_cycle",
        "make_grotzsch",
        "make_mycielski",
        "odd_cycle_in",
        "odd_cycles",
        "save_graph",
    ),
    "verify": ("VerificationReport",),
    "winding": (
        "FAR",
        "Half",
        "OddCycleCtx",
        "chord_order",
        "delta3",
        "delta_k",
        "fixed_points",
        "in_even_class",
        "label",
        "little_path",
        "orient_edge",
    ),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER) + ["__version__"]


def __getattr__(name: str):
    # Any other name raises AttributeError, which ``from . import verify``
    # needs to go on and import the submodule.
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
