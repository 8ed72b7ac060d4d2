"""The package functions that the benchmark's tracer wraps still exist.

``bench/spans.py`` names them by module and attribute in ``TARGETS``. A
refactor that renames or removes one would otherwise show only in the slow
benchmark tests (``python3 -m pytest -q bench/tests``). The table is read,
never changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{modname}.{fname}"
        for modname, funcs in spans.TARGETS.items()
        for fname in funcs
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert spans.TARGETS and not missing
