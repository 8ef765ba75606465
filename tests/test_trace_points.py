"""The call sites perfbench's tracer wraps exist under the names it wraps them by.

perfbench/spans.py reassigns module and class attributes of landreg by name.
A rename or a deletion in landreg would otherwise only show when the
benchmark itself runs.  The module is loaded read-only: no tracer is installed.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_is_its_owners_own():
    wraps = load_spans().WRAPS
    assert wraps
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in wraps
               if attr not in vars(owner)]
    assert missing == []
