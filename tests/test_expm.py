"""``flow.expm`` against ``scipy.linalg.expm`` as an oracle.

The inputs are what the engines exponentiate: the generator of every
compiled epoch times every ``dt`` it is propagated over (the template's two
grid pieces, the ``steps`` substep at the default ``dt_max``, and the
no-observer flow driver's jump), in all four configurations under all three
laser settings, at depth 2 and after one frontier extension. scipy is a test
dependency only.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from telegraphsim import flow, runner
from telegraphsim.config import RunConfig
from telegraphsim.state import AtomLevel

KINDS = ("v", "lambda", "cascade_weak_up", "cascade_weak_down")
LASERS = ("both", "strong_only", "weak_only")
PHYSICAL_RATIO = 5e-9


def _configs(ratio: float):
    for kind in KINDS:
        for lasers in LASERS:
            yield RunConfig(kind=kind, lasers=lasers, k_weak_absorb=ratio, k_weak_emit=ratio)


def _exercise_engines(cfg: RunConfig) -> list[float]:
    """Compile and propagate cfg's epochs as the engines do; returns each template's residual."""
    residuals = []
    epochs = runner._CompiledEpochs(cfg)
    for atom in AtomLevel:
        ep = epochs[atom]
        compiled = [ep]
        if ep.frontier_idx:
            compiled.append(runner._extended(ep, ep.graph.labels[ep.frontier_idx[0]])[0])
        for c in compiled:
            residuals.append(c.template.conservation_residual)
            flow.step(c.chain(0.0, 0), c.system.edges, cfg.dt_max, c.system)
    no_observer = replace(cfg, mode="original_no_observer")
    epochs = runner._CompiledEpochs(no_observer)
    jump = 10.0 / epochs[AtomLevel.GROUND].system.max_rate  # one jump of the flow driver
    runner.run_trajectory_flow(replace(no_observer, duration=jump), None, epochs)
    return residuals


def _engine_inputs(ratios) -> tuple[list[np.ndarray], list[float]]:
    """Every distinct matrix the engines exponentiate, and every template's residual."""
    seen = {}
    residuals = []
    real = flow.expm

    def record(a):
        seen.setdefault((a.shape, a.tobytes()), a.copy())
        return real(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "expm", record)
        for ratio in ratios:
            for cfg in _configs(ratio):
                residuals += _exercise_engines(cfg)
    return list(seen.values()), residuals


@pytest.fixture(scope="module")
def engine_inputs():
    return _engine_inputs((1e-3, 0.1, 1.0))[0]


def test_expm_matches_scipy_on_engine_inputs(engine_inputs, monkeypatch):
    degrees = []
    pade = flow._pade

    def recorded_pade(a, m):
        degrees.append(m)
        return pade(a, m)

    monkeypatch.setattr(flow, "_pade", recorded_pade)
    # the same generators scaled into every degree's band and far beyond
    g = engine_inputs[0] / np.linalg.norm(engine_inputs[0], 1)
    inputs = engine_inputs + [g * norm for norm in (0.01, 0.2, 0.9, 2.0, 5.0, 50.0)]
    squared = 0
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for a in inputs:
            ours = flow.expm(a)
            assert np.abs(ours - scipy.linalg.expm(a)).max() <= 1e-13
            assert np.abs(ours.sum(axis=0) - 1.0).max() <= 1e-13
            assert ours.min() >= -1e-15
            squared += np.linalg.norm(a, 1) > flow._PADE_THETA[-1][1]
    assert sorted(set(degrees)) == [m for m, _ in flow._PADE_THETA]
    assert squared > 0


def test_expm_zero_generator_and_closed_forms():
    for n in (1, 3, 20):
        assert np.array_equal(flow.expm(np.zeros((n, n))), np.eye(n))
    for x in (-3e6, -40.0, -3.0, -0.5, -1e-3, 1e-3, 0.5, 3.0):
        assert flow.expm(np.array([[x]]))[0, 0] == pytest.approx(math.exp(x), rel=1e-14, abs=0.0)
    # exp([[-a, 0], [t, -b]]) has t (e^-b - e^-a) / (a - b) below the diagonal, t e^-a if a = b
    for a, b, t in ((10.0, 10.0, 10.0), (30.0, 30.0 + 1e-9, 30.0), (1e6, 1e-3, 1e6)):
        d = abs(a - b)
        expected = t * math.exp(-min(a, b)) * (-math.expm1(-d) / d if d else 1.0)
        e = flow.expm(np.array([[-a, 0.0], [t, -b]]))
        assert e[1, 0] == pytest.approx(expected, rel=1e-13, abs=0.0)
        assert e[0, 0] == math.exp(-a) and e[1, 1] == math.exp(-b) and e[0, 1] == 0.0


def test_expm_conservation_at_physical_ratio(monkeypatch):
    """At 5e-9 the tail piece's cells are 3.3e6 units long, which takes 21 squarings.

    The worst template conservation residual must be no worse than with
    scipy's ``expm``, and so must every propagator's column sums.
    """
    numpy_expm = flow.expm
    inputs, ours = _engine_inputs((PHYSICAL_RATIO,))
    monkeypatch.setattr(flow, "expm", scipy.linalg.expm)
    theirs = [r for cfg in _configs(PHYSICAL_RATIO) for r in _exercise_engines(cfg)]
    assert max(ours) <= max(theirs)

    def column_sum_error(p):
        return np.abs(p.sum(axis=0) - 1.0).max()

    assert max(column_sum_error(numpy_expm(a)) for a in inputs) <= max(
        column_sum_error(scipy.linalg.expm(a)) for a in inputs
    )
