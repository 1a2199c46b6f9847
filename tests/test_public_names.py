"""The names other code reaches the package by: ``__all__`` and the layer
functions that ``perfbench/tracer.py`` wraps by name."""

import importlib
import importlib.util
from pathlib import Path

import expocolor
from expocolor import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
