"""Every name the benchmark's traced run wraps still exists in the package.

``perfbench/run.py --trace 1`` looks each layer up by ``module:attr``
(its ``PATCHES`` and ``COUNTED_CALLS``). A name that is gone prints
``MISSING`` and drops that layer's metric from the JSON result, so a
refactor that deletes or moves one must fail here first.
"""

from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    tracer = run.install_tracer()
    try:
        assert tracer.missing == set()
    finally:
        tracer.restore()
