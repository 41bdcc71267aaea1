"""The benchmark tracer's span table names functions that exist.

``perfbench/tracer.py`` wraps the functions its ``SPANS`` lists by name, so a
renamed or deleted function would otherwise surface only when a traced
benchmark runs. The module imports only the standard library and is loaded
here by path, as it is.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


def test_every_span_names_a_function():
    missing = [
        f"dpselect.{module_name}.{name}"
        for module_name, names, _ in TRACER.SPANS
        for name in names
        if not callable(getattr(importlib.import_module(f"dpselect.{module_name}"), name, None))
    ]
    assert missing == []


def test_self_test_passes():
    assert TRACER.self_test() == []
