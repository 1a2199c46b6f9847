"""The names other code reaches the package by: ``__all__``, the layer
functions that ``perfbench/tracer.py`` wraps by name, the one binding
of Δ and of the kernel, and the one record base; and what each import
loads, each read from ``sys.modules`` in a fresh interpreter."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import expocolor
from expocolor import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(expocolor.__file__).resolve().parents[1]


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_public_names_resolve():
    assert [name for name in expocolor.__all__ if not hasattr(expocolor, name)] == []


def test_traced_functions_exist():
    targets = _tracer_targets()
    assert targets
    missing = []
    for module_name, attr, span_name in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(span_name)
    assert missing == []


def test_cli_dispatches_the_traced_verifiers():
    # the tracer rebinds a verifier where it finds it as a module-level
    # dict value, so the CLI's table must hold the functions themselves
    verifiers = {
        getattr(importlib.import_module(module_name), attr)
        for module_name, attr, _ in _tracer_targets()
        if module_name == "expocolor.verify"
    }
    assert verifiers == set(cli._VERIFY_DISPATCH.values())


def _loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.split())


def _ours(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "expocolor"}


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = _loaded_after("import expocolor")
    assert _ours(loaded) == {"expocolor"}
    assert "numpy" not in loaded


def test_cycle_context_import_loads_only_winding_and_errors():
    loaded = _loaded_after("from expocolor.winding import OddCycleCtx")
    assert _ours(loaded) == {"expocolor", "expocolor.errors", "expocolor.winding"}


def test_cycle_context_loads_numpy_only_when_the_kernel_runs():
    made = "from expocolor.winding import OddCycleCtx, label\nctx = OddCycleCtx.make(5, 3)\n"
    assert "numpy" not in _loaded_after(made + "label((1, 2) * 5 + (3,), ctx)")
    loaded = _loaded_after(
        made + "from expocolor import winding\nwinding.np_tour([1, 2] * 5 + [3], ctx)\n"
        "import numpy\nassert winding.np is numpy"
    )
    assert "numpy" in loaded


def test_graphs_import_loads_no_numpy():
    loaded = _loaded_after("import expocolor.graphs")
    assert _ours(loaded) == {"expocolor", "expocolor.errors", "expocolor.graphs"}
    assert "numpy" not in loaded


@pytest.mark.parametrize("layer", ["cycle-context", "load-graph"])
def test_the_layers_without_numpy_load_no_dataclasses(layer, tmp_path):
    # ``dataclasses`` imports ``inspect`` (and ``ast``, ``dis``,
    # ``tokenize``), the larger part of these layers' import time
    path = tmp_path / "c5.json"
    path.write_text('{"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}')
    statement = {
        "cycle-context": "from expocolor.winding import OddCycleCtx\nOddCycleCtx.make(3, 3)",
        "load-graph": f"from expocolor.graphs import load_graph\nload_graph({str(path)!r})",
    }[layer]
    loaded = _loaded_after(statement)
    assert {"dataclasses", "inspect", "numpy"} & loaded == set()


def test_cli_import_loads_every_traced_module():
    # the tracer rebinds functions only in the modules loaded when it
    # installs, right after ``import expocolor.cli``
    loaded = _loaded_after("import expocolor.cli")
    assert {module for module, _, _ in _tracer_targets()} <= loaded


def test_public_names_load_on_demand_from_their_submodules():
    assert set(expocolor.__all__) <= set(dir(expocolor))
    for name, module in expocolor._OWNER.items():
        owner = importlib.import_module(f"expocolor.{module}")
        assert getattr(expocolor, name) is getattr(owner, name), name
    namespace: dict = {}
    exec("from expocolor import *", namespace)
    assert set(expocolor.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        expocolor.no_such_name
    # a name that only a submodule makes public is not re-exported
    assert not hasattr(expocolor, "color_rows_in_kh")


def test_only_winding_binds_delta_and_the_kernel():
    # Δ and the kernel have one patch point each, winding.arc_value and
    # winding.np_tour: every other module looks them up in winding per call
    bound = []
    for path in sorted((SRC / "expocolor").glob("*.py")):
        if path.stem == "winding":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("winding"):
                names = {alias.name for alias in node.names} & {"arc_value", "np_tour", "*"}
                bound += [f"{path.name}:{node.lineno} {name}" for name in sorted(names)]
    assert bound == []


def test_the_records_take_their_methods_from_the_one_base():
    # "read-only; equal, hashed, shown and pickled by _fields" is stated
    # once, in errors._Record: no record class, nor a class between it and
    # the base, defines one of those methods again
    from expocolor.errors import _Record
    from expocolor.graphs import CycleWitness, Graph
    from expocolor.winding import OddCycleCtx

    methods = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__reduce__"}
    assert methods <= set(vars(_Record))
    for record in (Graph, CycleWitness, OddCycleCtx):
        assert issubclass(record, _Record)
        below_base = record.__mro__[: record.__mro__.index(_Record)]
        assert [(c.__name__, sorted(methods & set(vars(c)))) for c in below_base] == [
            (record.__name__, [])
        ]
