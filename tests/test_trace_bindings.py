"""Every function the benchmark's tracer replaces is still bound where the
tracer looks for it.

``perfbench/tracing.py`` patches functions at their callers' bindings (for
example ``dgq.cohomology:rank_fp``).  A refactor that drops or renames one of
those names would otherwise surface only in a traced benchmark run
(``python3 perfbench/run.py --trace 1``); here it fails the test suite.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
BINDINGS = sorted({b for bindings in tracing.SPANS.values() for b in bindings}
                  | set(tracing.LINALG)
                  | {f"dgq.fields:FieldSpec.{op}" for op in tracing.FIELD_OPS})


@pytest.mark.parametrize("binding", BINDINGS)
def test_traced_binding_resolves(binding):
    owner, name = tracing._resolve(binding)
    assert callable(getattr(owner, name, None)), binding
