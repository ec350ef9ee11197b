"""The traced benchmark run (``perfbench/spans.py``) wraps package functions
by name; every name it lists must still exist, or ``--trace 1`` fails only
when it is run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    spans = load_spans()
    missing = []
    traced = set()
    for module_name, attrs in spans.TARGETS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            if not callable(getattr(holder, "__dict__", {}).get(fname)):
                missing.append(f"{module_name}.{attr}")
            traced.add(f"{module_name.rpartition('.')[2]}.{attr}")
    assert missing == []
    assert traced
    # replication roots and per-model span keys name wrapped functions
    assert set(spans.REP_ROOTS) <= traced
    assert set(spans.SPAN_KEYS) <= traced
