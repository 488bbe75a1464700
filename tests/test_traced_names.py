"""Every name the benchmark's traced run wraps still exists in the package.

``perfbench/run.py --trace 1`` looks each layer up by ``module:attr``
(its ``PATCHES`` and ``COUNTED_CALLS``). A name that is gone prints
``MISSING`` and drops that layer's metric from the JSON result, so a
refactor that deletes or moves one must fail here first.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    tracer = run.install_tracer()
    try:
        missing = tracer.missing
    finally:
        tracer.restore()
    sites = defaultdict(list)
    for target, name, *_ in (*run.PATCHES, *run.COUNTED_CALLS):
        sites[name].append(target)
    assert missing == set(), (
        "span names found at none of their lookup sites: "
        f"{ {name: sites[name] for name in sorted(missing)} }"
    )
