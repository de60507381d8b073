"""The benchmark's tracer wraps package names that must keep existing."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "cyclebench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("cyclebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves_to_a_callable():
    spans = load_spans()
    assert spans.BOUNDARIES
    for target, attr, name, _ in spans.BOUNDARIES:
        owner = spans._resolve(target)
        assert callable(vars(owner).get(attr)), f"{name}: {target} has no {attr!r}"
