"""Explicit per-vertex colorings of exponential graphs over odd cycles.

The package splits into arithmetic on odd cycles (:mod:`.winding`),
exponential-graph construction (:mod:`.expo`), the O(n) coloring
routines (:mod:`.coloring`), host-graph utilities (:mod:`.graphs`),
brute-force verification (:mod:`.verify`), and a timing harness
(:mod:`.bench`).  The :mod:`.cli` module exposes everything as the
``expocolor`` command.

Imports follow one rule: a module loads at import no submodule but
those it imports itself, and neither numpy nor ``inspect`` (with
``ast``, ``dis`` and ``tokenize``).  ``import expocolor`` loads no submodule:
each public name is looked up in ``_PUBLIC``, and the first access
imports the submodule that owns it (PEP 562) and keeps the name here.
Each submodule binds ``winding._Numpy`` as its ``np``, which imports
numpy on the first read and rebinds that module's ``np`` to numpy
itself.  Every record (``Graph``, ``CycleWitness``, ``OddCycleCtx``,
``ColorVerdict``, ``ExpoGraph``, ``VerificationReport``,
``BenchResult``) is an ``errors._Record``, read-only and equal, hashed,
shown and pickled by its fields, so nothing loads ``inspect``, which
took more than half of a fresh cycle-context setup.

numpy loads when a call first reaches numpy code: the kernel
(``winding.np_tour``), a stack routine, a verifier.  None is needed by
a cycle context, by ``winding.fixed_points`` and ``in_even_class``, by
the step histogram ``scalar.row_tour`` with the scalar ``label`` and
``little_path`` and the one-row ``coloring.color_row`` that read it, by
the one-row general-host routine ``coloring.color_in_kh``, or by a
``color`` call on a short input, on a cycle or a ``--graph`` host.

Two imports stay eager on purpose.  :mod:`.cli` loads :mod:`.verify` up
front because a tracer that rebinds functions in the modules already
loaded when it installs (as ``perfbench``'s does, right after
``import expocolor.cli``) finds the verifiers only there.  :mod:`.coloring`
binds the :mod:`.expo` and :mod:`.graphs` functions it calls at import,
so that patching a name such as ``coloring.bipartition`` reaches every
call.  The two rules of :mod:`.winding`, Δ (``winding.arc_value``) and
the kernel (``winding.np_tour``), are bound nowhere else: every module
reads them from :mod:`.winding` when it calls them.
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
    "scalar": ("label", "little_path"),
    "verify": ("VerificationReport",),
    "winding": (
        "FAR",
        "OddCycleCtx",
        "chord_order",
        "fixed_points",
        "in_even_class",
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
