from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import telegraphsim as ts
from telegraphsim.errors import DuplicateLabel, InvalidLabel

from references import chain_from_graph

atoms = st.sampled_from(list(ts.AtomLevel))
counts = st.integers(min_value=0, max_value=50)


def test_make_label_initial_condition():
    lab = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    assert lab.atom is ts.AtomLevel.GROUND
    assert (lab.clicks, lab.strong, lab.weak) == (0, 0, 0)
    assert not lab.ready


def test_make_label_first_recorded_photon():
    lab = ts.ComponentLabel(ts.AtomLevel.GROUND, 1, 1, 0, True)
    assert lab.ready
    assert lab.clicks == 1


def test_make_label_undetected_weak_photon():
    lab = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 1)
    assert lab.weak == 1 and lab.clicks == 0
    assert not lab.ready


@pytest.mark.parametrize("bad", [(-1, 0, 0), (0, -2, 0), (0, 0, -1)])
def test_make_label_rejects_negative_counts(bad):
    with pytest.raises(InvalidLabel):
        ts.ComponentLabel(ts.AtomLevel.GROUND, *bad)
    # replace builds a label too, and checks it as construction does
    lab = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    with pytest.raises(InvalidLabel):
        replace(lab, **dict(zip(["clicks", "strong", "weak"], bad)))


@pytest.mark.parametrize("bad", [(2.7, 0, 0), (-0.5, 0, 0), (0, 1.0, 0), (0, 0, "1"), (True, 0, 0)])
def test_a_label_rejects_counts_that_are_not_integers(bad):
    # int() would truncate these to valid counts: 2.7 clicks to 2 and -0.5 to 0
    with pytest.raises(InvalidLabel, match="integers"):
        ts.ComponentLabel(ts.AtomLevel.GROUND, *bad)
    lab = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    with pytest.raises(InvalidLabel, match="integers"):
        replace(lab, **dict(zip(["clicks", "strong", "weak"], bad)))


@pytest.mark.parametrize("bad", [1, 0, "yes", None, np.bool_(True)])
def test_a_label_rejects_a_ready_flag_that_is_not_a_bool(bad):
    with pytest.raises(InvalidLabel, match="ready must be a bool"):
        ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0, bad)
    lab = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    with pytest.raises(InvalidLabel, match="ready must be a bool"):
        replace(lab, ready=bad)


def test_a_label_rejects_an_atom_that_is_not_an_atom_level():
    with pytest.raises(InvalidLabel, match="atom must be an AtomLevel"):
        ts.ComponentLabel(0, 0, 0, 0)


@given(atoms, counts, counts, counts)
def test_label_value_semantics(atom, c, s, w):
    a = ts.ComponentLabel(atom, c, s, w)
    b = ts.ComponentLabel(atom, c, s, w)
    assert a == b
    assert hash(a) == hash(b)
    assert a != ts.ComponentLabel(atom, c, s, w, True)


@given(atoms, counts, counts, counts, counts)
def test_label_shift_roundtrip(atom, c, s, w, d):
    lab = ts.ComponentLabel(atom, c, s, w)
    up = replace(lab, clicks=c + d, strong=s + d, weak=w + d)
    assert replace(up, clicks=up.clicks - d, strong=up.strong - d, weak=up.weak - d) == lab


def test_total_mass_single():
    lab = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    state = ts.ChainState([lab], [1.0])
    assert state.masses.sum() == 1.0


def test_total_mass_two_components():
    a = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    b = ts.ComponentLabel(ts.AtomLevel.STRONG, 0, 0, 0)
    state = ts.ChainState([a, b], [0.6, 0.4])
    assert state.masses.sum() == pytest.approx(1.0, abs=1e-15)


def test_total_mass_mid_trajectory():
    # conservative integrator keeps the sum at one
    kind = ts.ConfigKind(ts.Configuration.V, ts.LaserDrive.BOTH)
    g = ts.build_epoch(kind, ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0), ts.RateSet(), 2)
    state = chain_from_graph(g)
    active = ts.active_edges(state)
    for _ in range(200):
        state, _ = ts.step(state, active, 0.01)
    assert abs(state.masses.sum() - 1.0) < 1e-9


def test_duplicate_label_rejected():
    lab = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    with pytest.raises(DuplicateLabel):
        ts.ChainState([lab, lab], [0.5, 0.5])


def test_edge_ledger_validation():
    g = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    e = ts.ComponentLabel(ts.AtomLevel.STRONG, 0, 0, 0)
    up = ts.ComponentLabel(ts.AtomLevel.GROUND, 1, 1, 0)
    ts.FlowEdge(g, e, 1.0, ts.EdgeKind.STRONG_ABSORB)  # atom-only change: fine
    with pytest.raises(ValueError):
        ts.FlowEdge(g, up, 1.0, ts.EdgeKind.STRONG_ABSORB)  # absorb cannot click
    with pytest.raises(ValueError):
        ts.FlowEdge(g, e, -1.0, ts.EdgeKind.STRONG_ABSORB)
    with pytest.raises(ValueError):
        ts.FlowEdge(g, e, 1.0, ts.EdgeKind.WEAK_EMIT)  # emit must add a weak photon


def test_chain_rejects_unknown_edge_endpoint():
    a = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    b = ts.ComponentLabel(ts.AtomLevel.STRONG, 0, 0, 0)
    edge = ts.FlowEdge(a, b, 1.0, ts.EdgeKind.STRONG_ABSORB)
    with pytest.raises(ValueError):
        ts.ChainState([a], [1.0], [edge])


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_an_edge_rejects_a_rate_that_is_not_positive_and_finite(rate):
    # a NaN or infinite rate once passed and gave FlowSystem a NaN or inf generator
    s = ts.ComponentLabel(ts.AtomLevel.STRONG, 0, 0, 0)
    g = ts.ComponentLabel(ts.AtomLevel.GROUND, 1, 1, 0)
    with pytest.raises(ValueError, match="positive and finite"):
        ts.FlowEdge(s, g, rate, ts.EdgeKind.STRONG_EMIT)
