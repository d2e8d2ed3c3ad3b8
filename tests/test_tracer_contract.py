"""The benchmark tracer wraps library functions by name; each must exist.

``perfbench/tracer.py`` is loaded without calling ``install()``, so
nothing is wrapped here.  A deletion or rename in ``src/`` that drops one
of the traced names would otherwise only show when the benchmark runs
with ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = _load_tracer()
    counted = [("wpoly.rootfind", "quaternion_candidate_classes"),
               ("wpoly.wedderburn", "_quaternion_root_classes")]
    for modname, fname in [(m, f) for m, f, _ in tracer.FUNCTIONS] + counted:
        assert callable(getattr(importlib.import_module(modname), fname, None)), \
            f"{modname}.{fname}"


def test_traced_methods_resolve():
    tracer = _load_tracer()
    for modname, clsname, methods, _ in tracer.METHODS:
        module = importlib.import_module(modname)
        base = getattr(module, clsname)
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and issubclass(c, base)]
        for meth in methods:
            assert any(meth in vars(c) for c in classes), \
                f"{modname}.{clsname}.{meth}"
