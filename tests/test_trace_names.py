"""The names the benchmark's tracer wraps, checked in the test suite.
``perfbench/spans.py`` wraps functions and methods of the package by name,
so a rename would break only traced benchmark runs.  This test loads that
file read-only and checks that every name resolves, and that installing
and removing the tracer leaves every module attribute as it was."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import substdyn

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    name = "perfbench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SPANS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _modules():
    for info in pkgutil.iter_modules(substdyn.__path__):
        importlib.import_module(f"substdyn.{info.name}")
    return {key: module for key, module in sys.modules.items()
            if key == "substdyn" or key.startswith("substdyn.")}


def _snapshot():
    """Every attribute of every package module and of every class the
    tracer patches, by identity."""
    spans = _spans()
    out = {}
    for key, module in _modules().items():
        for attr, value in vars(module).items():
            out[key, attr] = value
    for module_name, cls_name, *_ in spans.METHODS + spans.COUNTED_METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        for attr, value in vars(cls).items():
            out[module_name, cls_name, attr] = value
    return out


def test_every_traced_name_resolves():
    spans = _spans()
    _modules()
    missing = []
    for module_name, attr, _ in spans.FUNCTIONS:
        module = sys.modules.get(module_name)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    for module_name, cls_name, attr, _ in spans.METHODS + spans.COUNTED_METHODS:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{module_name}.{cls_name}.{attr}")
    assert missing == []


def test_install_then_remove_restores_every_attribute():
    before = _snapshot()
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert _snapshot() != before
    finally:
        tracer.remove()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
