"""The benchmark's trace hooks still name functions of the library.

``bench/tracing.py`` skips a ``TARGETS`` entry whose function no longer
exists, and the per-layer metrics built on it then drop out of the
benchmark's output without a failure.  This test fails instead, so a
rename in ``src/`` cannot silently lose a metric.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_names_a_library_function():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = []
    for name, owner, attr, _, _ in tracing.TARGETS:
        # resolved as ``Tracer.install`` does: a class's own attribute,
        # or a module's
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            missing.append("%s (%s.%s)" % (name, owner.__name__, attr))
    assert not missing, "trace hooks that name nothing: %s" % ", ".join(missing)
