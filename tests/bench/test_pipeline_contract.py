"""The pipeline benchmark's contract with the program, checked in seconds.

``bench/pipeline/layers.py`` attributes time by wrapping
``vars(owner)[method]`` for every target in its ``LAYERS`` table: a
method must be a ``def`` in the named class's *own* body (with a
trailing ``+``: in at least one class of its subclass tree).  A refactor
that turns a wrapped method into an inherited or generated attribute
would otherwise surface only as a ``null`` layer in a 20 s benchmark
run; here it fails under ``pytest -x -q``.

The file is loaded read-only, by path — it is not part of the package.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parents[2] / "bench" / "pipeline" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("_pipeline_layers_contract", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


LAYERS = _load_layers().LAYERS
TARGETS = [(layer.name, target) for layer in LAYERS for target in layer.targets]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("layer,target", TARGETS, ids=[target for _, target in TARGETS])
def test_layer_target_is_defined_where_the_benchmark_wraps_it(layer, target):
    module_name, _, path = target.partition(":")
    tree = path.endswith("+")
    path = path.rstrip("+")
    module = importlib.import_module(module_name)
    if "." not in path:
        assert callable(getattr(module, path, None)), f"{layer}: {target} is not a module-level callable"
        return
    class_name, _, method = path.partition(".")
    owner = getattr(module, class_name, None)
    assert isinstance(owner, type), f"{layer}: {module_name} has no class {class_name}"
    owners = [cls for cls in (owner, *(_subclasses(owner) if tree else ())) if method in vars(cls)]
    assert owners, (
        f"{layer}: {class_name}.{method} is not defined in the class body"
        f"{' of any class in its tree' if tree else ''} — the benchmark wraps vars(owner)[method]"
    )
    for cls in owners:
        raw = vars(cls)[method]
        raw = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        assert callable(raw), f"{layer}: {cls.__name__}.{method} is not callable"


def test_the_table_is_not_empty():
    assert len(TARGETS) > 40
