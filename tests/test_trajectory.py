"""The trajectory loop both engines share: where a run ends and what it compiles."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from telegraphsim import runner
from telegraphsim.config import RunConfig
from telegraphsim.eventlog import hits, serialize_log


@pytest.mark.parametrize("kind", ["v", "lambda"])
def test_renewal_duration_cut(kind):
    """A hit at exactly the duration is logged and ends the run; one just past it is not."""
    cfg = RunConfig(kind=kind, engine="renewal", duration=2000.0, master_seed=11,
                    k_weak_absorb=0.1, k_weak_emit=0.1)
    full = runner.run_trajectory(cfg, 0)
    full_hits = hits(full.records)
    assert len(full_hits) > 10
    q = len(full_hits) // 2
    h = float(full_hits.time[q])
    kept = full.records[full.records.epoch <= q]

    at = runner.run_trajectory(replace(cfg, duration=h), 0)
    assert serialize_log(at.records) == serialize_log(kept)
    assert at.final_time == h
    assert at.epochs == q + 1

    before = np.nextafter(h, 0.0)
    cut = runner.run_trajectory(replace(cfg, duration=before), 0)
    assert serialize_log(cut.records) == serialize_log(kept[kept.epoch < q])
    assert cut.final_time == before
    assert cut.epochs == q


def test_steps_without_weak_hits_builds_no_template():
    """The steps engine logs strong-only hits from the compiled epoch alone."""
    cfg = RunConfig(kind="v", lasers="strong_only", engine="steps", duration=50.0,
                    master_seed=3)
    epochs = runner._CompiledEpochs(cfg)
    res = runner.run_trajectory(cfg, 0, epochs)
    assert res.epochs > 10
    assert len(epochs) > 0
    for ep in epochs.values():
        assert "template" not in ep.__dict__


@pytest.mark.parametrize(
    "engine, mode",
    [("renewal", "nurules"), ("steps", "nurules"), ("renewal", "original_no_observer")],
)
def test_run_writes_what_the_library_call_returns(engine, mode, tmp_path):
    """Each log and report entry of ``run`` is that of ``run_trajectory(cfg, i)``."""
    cfg = RunConfig(
        kind="v", k_weak_absorb=0.1, k_weak_emit=0.1, duration=300.0, master_seed=7,
        trajectories=2, engine=engine, mode=mode, out=str(tmp_path),
    )
    assert runner.run(cfg) == 0
    report = (tmp_path / "report.jsonl").read_text(encoding="utf-8").splitlines()
    for i in range(cfg.trajectories):
        res = runner.run_trajectory(cfg, i)
        assert (mode == "original_no_observer") == (len(res.records) == 0)
        log = (tmp_path / f"events_{i:03d}.tsv").read_bytes()
        assert log == serialize_log(res.records).encode("utf-8")
        entry = json.loads(report[i])
        for field in ("epochs", "final_time", "max_mass_residual", "stationarity_residual"):
            assert entry.get(field) == getattr(res, field), field
