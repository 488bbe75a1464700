import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import telegraphsim as ts
from telegraphsim.errors import InvalidStep, OracleUnsupported

from conftest import make_single_edge, make_two_branch


def graph_for(conf, lasers=ts.LaserDrive.BOTH, depth=2, rates=None):
    kind = ts.ConfigKind(conf, lasers)
    root = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    g = ts.build_epoch(kind, root, rates or ts.RateSet(), depth)
    return ts.chain_from_graph(g)


def test_single_edge_drains_completely():
    state, edge, src, dst = make_single_edge(rate=1.0)
    out = ts.integrate_exact_oracle(state, [edge], 60.0)
    assert out.mass_of(dst) == pytest.approx(1.0, abs=1e-12)


def test_single_edge_closed_form_step():
    # m_dst(0.1) = 1 - exp(-0.1) = 0.09516258196404048
    state, edge, src, dst = make_single_edge(rate=1.0)
    out, _ = ts.step(state, [edge], 0.1)
    assert out.mass_of(dst) == pytest.approx(1.0 - np.exp(-0.1), abs=1e-12)
    assert out.mass_of(src) == pytest.approx(np.exp(-0.1), abs=1e-12)


def test_two_exit_competition_split():
    # asymptotic split follows k1/(k1+k2): 0.999001 vs 0.000999 at 1.0 : 0.001
    src = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    b1 = ts.make_label(ts.AtomLevel.GROUND, 1, 1, 0, ts.BOTH_MARKS)
    b2 = ts.make_label(ts.AtomLevel.STRONG, 1, 1, 0, ts.BOTH_MARKS)
    e1 = ts.FlowEdge(src, b1, 1.0, ts.EdgeKind.STRONG_EMIT)
    e2 = ts.FlowEdge(src, b2, 1e-3, ts.EdgeKind.STRONG_EMIT)
    state = ts.ChainState([src, b1, b2], [1.0, 0.0, 0.0], [e1, e2])
    for _ in range(4000):
        state, _ = ts.step(state, [e1, e2], 0.01)
    assert state.mass_of(b1) == pytest.approx(1.0 / 1.001, abs=1e-6)
    assert state.mass_of(b2) == pytest.approx(1e-3 / 1.001, abs=1e-6)
    oracle = ts.integrate_exact_oracle(
        ts.ChainState([src, b1, b2], [1.0, 0.0, 0.0], [e1, e2]), [e1, e2], 40.0
    )
    assert oracle.mass_of(b1) == pytest.approx(1.0 / 1.001, abs=1e-6)


def test_step_rejects_nonpositive_dt():
    state, edge, *_ = make_single_edge()
    with pytest.raises(InvalidStep):
        ts.step(state, [edge], 0.0)
    with pytest.raises(InvalidStep):
        ts.step(state, [edge], -0.1)


def test_oracle_identity_at_zero():
    state, edge, *_ = make_single_edge()
    out = ts.integrate_exact_oracle(state, [edge], 0.0)
    assert np.array_equal(out.masses, state.masses)


def test_oracle_matches_closed_form():
    state, edge, src, dst = make_single_edge(rate=1.0)
    out = ts.integrate_exact_oracle(state, [edge], 0.1)
    assert out.mass_of(dst) == pytest.approx(1.0 - np.exp(-0.1), abs=1e-6)


def test_oracle_rejects_cycles():
    a = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    b = ts.make_label(ts.AtomLevel.STRONG, 0, 0, 0)
    e1 = ts.FlowEdge(a, b, 1.0, ts.EdgeKind.STRONG_ABSORB)
    e2 = ts.FlowEdge(b, a, 1.0, ts.EdgeKind.STRONG_ABSORB)
    state = ts.ChainState([a, b], [1.0, 0.0], [e1, e2])
    with pytest.raises(OracleUnsupported):
        ts.integrate_exact_oracle(state, [e1, e2], 1.0)


@pytest.mark.parametrize("conf", list(ts.Configuration))
def test_step_matches_oracle_per_configuration(conf):
    # coarse stepping vs fine-step oracle within 1e-6 per component
    state = graph_for(conf)
    active = ts.active_edges(state)
    checkpoints = [0.5, 1.0, 2.0, 4.0, 8.0]
    s = state
    t = 0.0
    for tc in checkpoints:
        while t < tc - 1e-12:
            s, _ = ts.step(s, active, min(0.01, tc - t))
            t = s.time
        oracle = ts.integrate_exact_oracle(state, active, tc)
        assert np.max(np.abs(s.masses - oracle.masses)) < 1e-6


def test_oracle_two_resolution_consistency():
    # composed coarse steps agree with the one-shot oracle at a later time
    state = graph_for(ts.Configuration.V)
    active = ts.active_edges(state)
    s = state
    for _ in range(1000):
        s, _ = ts.step(s, active, 0.01)
    oracle = ts.integrate_exact_oracle(state, active, 10.0)
    assert np.max(np.abs(s.masses - oracle.masses)) < 1e-6


def test_conservation_over_many_steps():
    state = graph_for(ts.Configuration.V)
    active = ts.active_edges(state)
    worst = 0.0
    s = state
    for _ in range(5000):
        s, _ = ts.step(s, active, 0.01)
        worst = max(worst, abs(s.masses.sum() - 1.0))
    assert worst < 1e-9


def test_monotone_source_drain():
    # a component with only outflow edges never gains mass
    state, edges, b1, b2 = make_two_branch(0.7)
    src = state.labels[0]
    prev = state.mass_of(src)
    s = state
    for _ in range(500):
        s, _ = ts.step(s, edges, 0.01)
        cur = s.mass_of(src)
        assert cur <= prev + 1e-15
        prev = cur


def test_currents_into_single_inflow():
    # J = rate * source mass
    state, edge, src, dst = make_single_edge(rate=1.0)
    half = ts.ChainState([src, dst], [0.5, 0.5], [edge])
    _, report = ts.step(half, [edge], 1e-7)
    assert report.net_inflow[report.index[dst]] == pytest.approx(0.5, rel=1e-4)


def test_currents_into_dormant_is_exactly_zero():
    # no inflow edge carrying mass -> exactly 0.0, not merely small
    state, edges, b1, b2 = make_two_branch(0.5)
    drained = ts.ChainState(state.labels, [0.0, 0.5, 0.5], edges)
    _, report = ts.step(drained, edges, 0.01)
    assert report.net_inflow[report.index[b1]] == 0.0


def test_dormancy_then_reactivation_in_dark_epoch():
    """After the bright surge dies, only the weak branch still feeds a target.

    The strong-branch target's inflow drops to exactly zero (a dormant
    phantom holding frozen mass) while the weak cycle's completion keeps
    a strictly positive current into the other ready component.
    """
    state = graph_for(ts.Configuration.V, depth=1)
    active = ts.active_edges(state)
    strong_sink = ts.make_label(ts.AtomLevel.GROUND, 1, 1, 0, ts.BOTH_MARKS)
    weak_sink = ts.make_label(ts.AtomLevel.GROUND, 1, 1, 1, ts.BOTH_MARKS)
    s = state
    for _ in range(2000):  # one weak-cycle time at the default rates
        s, report = ts.step(s, active, 1.0)
    assert report.net_inflow[report.index[strong_sink]] == 0.0
    assert s.mass_of(strong_sink) > 0.99  # frozen mass stalls the strong decay
    assert report.net_inflow[report.index[weak_sink]] > 0.0


def test_reported_current_matches_average_mass():
    state, edge, src, dst = make_single_edge(rate=1.0)
    out, report = ts.step(state, [edge], 0.01)
    avg = 0.5 * (state.mass_of(src) + out.mass_of(src))
    assert report.edge_currents[0] == pytest.approx(avg * 1.0, rel=1e-3)


@settings(max_examples=30, deadline=None)
@given(
    rates=st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=4),
    dt=st.floats(min_value=1e-3, max_value=0.5),
)
def test_conservation_random_chains(rates, dt):
    # random linear chain with arbitrary rates stays normalized
    labels = [ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)]
    edges = []
    for i, k in enumerate(rates):
        nxt = ts.make_label(
            ts.AtomLevel.GROUND if i % 2 else ts.AtomLevel.STRONG, i + 1, i + 1, 0
        )
        edges.append(ts.FlowEdge(labels[-1], nxt, k, ts.EdgeKind.STRONG_EMIT))
        labels.append(nxt)
    state = ts.ChainState(labels, [1.0] + [0.0] * len(rates), edges)
    s = state
    for _ in range(20):
        s, _ = ts.step(s, edges, dt)
    assert abs(s.masses.sum() - 1.0) < 1e-9
    assert np.all(s.masses >= -1e-12)
