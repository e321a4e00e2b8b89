"""The benchmark's tracer table names only code that exists.

``perfbench/layers.py`` lists the ``(module, class, attribute)``
functions a traced benchmark run wraps, and the tracer looks each one
up without a default: a renamed or deleted function would crash every
``--trace 1`` repetition.  This test catches that at review time.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _entries():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRIES


def test_every_traced_entry_resolves_in_repro():
    entries = _entries()
    assert entries
    missing = []
    for span, module_name, class_name, attrs, _sample, observers in entries:
        owner = importlib.import_module(module_name)
        label = module_name
        if class_name:
            owner = getattr(owner, class_name, None)
            label = f"{module_name}.{class_name}"
        for attr in attrs:
            if owner is None or not callable(getattr(owner, attr, None)):
                missing.append(f"{span}: {label}.{attr}")
        assert set(observers) <= set(attrs), span
    assert not missing, f"traced entries missing from repro: {missing}"
