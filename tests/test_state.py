import pytest
from hypothesis import given, strategies as st

import telegraphsim as ts
from telegraphsim.errors import DuplicateLabel, InvalidLabel

atoms = st.sampled_from(list(ts.AtomLevel))
counts = st.integers(min_value=0, max_value=50)


def test_make_label_initial_condition():
    lab = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    assert lab.atom is ts.AtomLevel.GROUND
    assert (lab.clicks, lab.strong, lab.weak) == (0, 0, 0)
    assert not lab.ready.any()


def test_make_label_first_recorded_photon():
    lab = ts.make_label(ts.AtomLevel.GROUND, 1, 1, 0, ts.BOTH_MARKS)
    assert lab.ready.atom_ready and lab.ready.detector_ready
    assert lab.clicks == 1


def test_make_label_undetected_weak_photon():
    lab = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 1)
    assert lab.weak == 1 and lab.clicks == 0
    assert not lab.ready.any()


@pytest.mark.parametrize("bad", [(-1, 0, 0), (0, -2, 0), (0, 0, -1)])
def test_make_label_rejects_negative_counts(bad):
    with pytest.raises(InvalidLabel):
        ts.make_label(ts.AtomLevel.GROUND, *bad)


@given(atoms, counts, counts, counts)
def test_label_value_semantics(atom, c, s, w):
    a = ts.make_label(atom, c, s, w)
    b = ts.make_label(atom, c, s, w)
    assert a == b
    assert hash(a) == hash(b)
    assert a != ts.make_label(atom, c, s, w, ts.BOTH_MARKS)


@given(atoms, counts, counts, counts, counts)
def test_label_shift_roundtrip(atom, c, s, w, d):
    lab = ts.make_label(atom, c, s, w)
    assert lab.shifted(clicks=d, strong=d, weak=d).shifted(
        clicks=-d, strong=-d, weak=-d
    ) == lab


def test_total_mass_single():
    lab = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    state = ts.ChainState([lab], [1.0])
    assert state.masses.sum() == 1.0


def test_total_mass_two_components():
    a = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    b = ts.make_label(ts.AtomLevel.STRONG, 0, 0, 0)
    state = ts.ChainState([a, b], [0.6, 0.4])
    assert state.masses.sum() == pytest.approx(1.0, abs=1e-15)


def test_total_mass_mid_trajectory():
    # conservative integrator keeps the sum at one
    kind = ts.ConfigKind(ts.Configuration.V, ts.LaserDrive.BOTH)
    g = ts.build_epoch(kind, ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0), ts.RateSet(), 2)
    state = ts.chain_from_graph(g)
    active = ts.active_edges(state)
    for _ in range(200):
        state, _ = ts.step(state, active, 0.01)
    assert abs(state.masses.sum() - 1.0) < 1e-9


def test_duplicate_label_rejected():
    lab = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    with pytest.raises(DuplicateLabel):
        ts.ChainState([lab, lab], [0.5, 0.5])


def test_edge_ledger_validation():
    g = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    e = ts.make_label(ts.AtomLevel.STRONG, 0, 0, 0)
    up = ts.make_label(ts.AtomLevel.GROUND, 1, 1, 0)
    ts.FlowEdge(g, e, 1.0, ts.EdgeKind.STRONG_ABSORB)  # atom-only change: fine
    with pytest.raises(ValueError):
        ts.FlowEdge(g, up, 1.0, ts.EdgeKind.STRONG_ABSORB)  # absorb cannot click
    with pytest.raises(ValueError):
        ts.FlowEdge(g, e, -1.0, ts.EdgeKind.STRONG_ABSORB)
    with pytest.raises(ValueError):
        ts.FlowEdge(g, e, 1.0, ts.EdgeKind.WEAK_EMIT)  # emit must add a weak photon


def test_chain_rejects_unknown_edge_endpoint():
    a = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    b = ts.make_label(ts.AtomLevel.STRONG, 0, 0, 0)
    edge = ts.FlowEdge(a, b, 1.0, ts.EdgeKind.STRONG_ABSORB)
    with pytest.raises(ValueError):
        ts.ChainState([a], [1.0], [edge])
