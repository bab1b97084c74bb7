"""The benchmark's tracer patches refexp names where callers look them up, and its
``install`` fails on a name that is gone. These tests run with the module suite, so
removing a hooked name, even one nothing in ``src/`` calls, fails here first."""

from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_patches():
    """``_PATCHES`` of perfbench/tracing.py, executed from its source so no bytecode
    cache is written next to it."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["_PATCHES"]


def test_every_patched_name_resolves():
    patches = tracer_patches()
    missing = [f"{getattr(owner, '__name__', owner)}.{attribute}"
               for owner, attribute, *_ in patches if not callable(getattr(owner, attribute, None))]
    assert patches and missing == []

