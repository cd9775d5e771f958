"""The names perfbench/layers.py wraps in a traced benchmark run still exist.

A wrapped function that is deleted or renamed makes its per-layer metrics
read "absent" in a traced run; these tests catch that without running one.
layers.py needs no numpy and is imported from its file, unchanged.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


def _attr(module, attr):
    return getattr(importlib.import_module(f"{layers.PACKAGE}.{module}"), attr, None)


@pytest.mark.parametrize("module, attr",
                         [entry[:2] for entry in layers.FUNCTIONS + layers.CONTEXTS])
def test_every_wrapped_name_exists(module, attr):
    assert _attr(module, attr) is not None, f"{layers.PACKAGE}.{module}.{attr} is gone"


# the argument each count hook reads from the wrapped call
@pytest.mark.parametrize("module, attr, param", [
    ("data_io", "load_features", "path"),
    ("data_io", "load_labels", "path"),
    ("hamming", "save_codes", "path"),
    ("retrieval", "write_report", "path"),
    ("retrieval", "evaluate", "query_words"),
    ("model", "train", "cfg"),
])
def test_hook_arguments_are_still_parameters(module, attr, param):
    assert param in inspect.signature(_attr(module, attr)).parameters
