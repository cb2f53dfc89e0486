"""The span tracer in benchmarks/ wraps bellsim names it looks up by string.

A rename or a moved import would break a traced benchmark run without
failing anything else, so every name it wraps must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for module_name, class_name, attr, _span, _hook in spans.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
    assert not missing, f"names the tracer cannot wrap: {missing}"
