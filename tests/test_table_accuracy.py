"""The template's tables against the matrix exponential at sampled grid times.

A template tabulates the root's masses and, for its crossing stages, the
arrival curve at each sink of a unit impulse at a weak edge's target, both
by stepping propagators along the grid. At about 40 grid rows of each table
this test evaluates ``flow.expm(A t)`` directly, an independent route to
the same numbers. It covers the four configurations, both lasers on, from
the ground root, at weak/strong ratios 1e-3, 0.1 and 1 and depths 2 and 8.

Each stage stores its lag density, the current into its sink: the rate of
the sink's one incoming edge times the mass that the impulse has put at
that edge's source. The test compares it at the sampled rows with the same
rate times ``expm(A t)[source, target]``.

The masses and the conservation residual must hold to ``MASS_BOUND``. The
lag densities get ``LAG_BOUND``: in Lambda and the weak-down cascade at
ratio 1e-3, an impulse at a weak edge's target waits in a slow state through
the fast piece's 3,000 steps. The fast propagator holds that state's
diagonal entry to within about 1.8e-16, one rounding, so the waiting mass
loses about 3,000 times that, about 5.4e-13 (stepped with correctly rounded
propagators, computed by ``mpmath``, it loses 1.1e-13). A density is a rate
of at most 1 times a mass here, so that loss bounds its error; over these
cases the densities stay within 4.6e-15 of the exponential.
"""

import numpy as np
import pytest

import telegraphsim as ts
from telegraphsim.epochs import CompiledEpoch
from telegraphsim.flow import expm

MASS_BOUND = 1e-13
LAG_BOUND = 1e-12
SAMPLES = 41


def _template(configuration, ratio, depth):
    kind = ts.ConfigKind(configuration, ts.LaserDrive.BOTH)
    rates = ts.RateSet(k_weak_absorb=ratio, k_weak_emit=ratio)
    graph = ts.build_epoch(kind, ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0), rates, depth)
    ep = CompiledEpoch(graph)
    return ep, ep.template


@pytest.mark.parametrize("depth", (2, 8))
@pytest.mark.parametrize("ratio", (1e-3, 0.1, 1.0))
@pytest.mark.parametrize("configuration", list(ts.Configuration), ids=lambda c: c.value)
def test_tables_match_expm(configuration, ratio, depth):
    ep, tpl = _template(configuration, ratio, depth)
    assert tpl.conservation_residual < MASS_BOUND
    A = tpl.system.generator
    rows = np.unique(np.linspace(0, len(tpl.grid) - 1, SAMPLES).astype(np.intp))
    exact = {int(r): expm(A * tpl.grid[r]) for r in rows}
    mass_gap = max(np.abs(tpl.masses[r] - E @ ep.root_masses).max() for r, E in exact.items())
    assert mass_gap <= MASS_BOUND

    lag_gap, stages = 0.0, 0
    for sink, staged in tpl.crossing_stages.items():
        (feed,) = [e for e in tpl.system.edges if e.target == sink]
        source = tpl.index[feed.source]
        for st in staged:
            want = np.array([feed.rate * E[source, st.target] for E in exact.values()])
            lag_gap = max(lag_gap, float(np.abs(st.lag_density[rows] - want).max()))
            stages += 1
    assert stages > 0
    assert lag_gap <= LAG_BOUND
