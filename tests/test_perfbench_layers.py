"""The traced benchmark path finds every layer method it wraps.

``perfbench/tracing.py`` wraps ``cls.__dict__[method]`` for each entry of
its ``LAYER_METHODS``, so a method that a class only inherits makes every
traced perfbench run fail with ``KeyError``.  Each round level defines
its own ``run_round`` for that reason, although all of them share one
body shape (``run_steps(self.round_steps(...))``).
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Imported as a module of its own and only read; dataclasses look their
# module up in ``sys.modules``, so it is registered there first.
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
tracing = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracing
_spec.loader.exec_module(tracing)

LAYER_TARGETS = sorted({entry[:3] for entry in tracing.LAYER_METHODS})


@pytest.mark.parametrize(
    "module_name, class_name, method",
    LAYER_TARGETS,
    ids=[f"{class_name}.{method}" for _, class_name, method in LAYER_TARGETS],
)
def test_layer_method_is_in_its_own_class(module_name, class_name, method):
    cls = getattr(importlib.import_module(module_name), class_name)
    assert method in cls.__dict__, f"{class_name}.{method} is inherited, not defined"
