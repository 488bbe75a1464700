"""Golden structural checks of the four configuration builders.

The depth-2 chains are asserted label by label against the displayed
term sequences: which components exist, which carry ready marks, and
where flow is blocked. ``build_epoch`` builds only the live ladder; the
chain as displayed, with the labels behind blocked edges, comes from
``references.displayed_epoch``.
"""

from dataclasses import replace

import pytest

import telegraphsim as ts
from telegraphsim.errors import InvalidDepth, NotExtensible

from conftest import root_shifted
from references import chain_from_graph, displayed_epoch, integrate_exact_oracle

G, S, W = ts.AtomLevel.GROUND, ts.AtomLevel.STRONG, ts.AtomLevel.WEAK
RATES = ts.RateSet()
ROOT = ts.ComponentLabel(G, 0, 0, 0)


def lab(atom, clicks, strong, weak, ready=False):
    return ts.ComponentLabel(atom, clicks, strong, weak, ready)


def build(conf, lasers=ts.LaserDrive.BOTH, depth=2, root=ROOT):
    return ts.build_epoch(ts.ConfigKind(conf, lasers), root, RATES, depth)


def displayed(conf, lasers=ts.LaserDrive.BOTH, depth=2, root=ROOT):
    return displayed_epoch(ts.ConfigKind(conf, lasers), root, RATES, depth)


def blocked_pairs(graph):
    active = set(ts.active_edges(chain_from_graph(graph)))
    return {(e.source, e.target) for e in graph.edges if e not in active}


def assert_live_ladder_of(live, shown):
    """``live`` is ``shown`` less the labels behind blocked edges, in the same order."""
    assert live.edges == ts.active_edges(chain_from_graph(shown))
    dead = set(shown.labels) - set(live.labels)
    assert live.labels == tuple(l for l in shown.labels if l not in dead)
    for l in dead:
        into = [e for e in shown.edges if e.target == l]
        assert into and all(e.source.ready and e.target.ready for e in into), l


class TestStrongOnlyChains:
    def test_absorb_first_chain(self):
        # (A0 + A1) D0 + A0*D1* (+) A1*D1* (+) A0*D2* (+) A1*D2*
        shown = displayed(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY)
        assert set(shown.labels) == {
            lab(G, 0, 0, 0),
            lab(S, 0, 0, 0),
            lab(G, 1, 1, 0, ready=True),
            lab(S, 1, 1, 0, ready=True),
            lab(G, 2, 2, 0, ready=True),
            lab(S, 2, 2, 0, ready=True),
        }
        assert len(shown.edges) == 5
        # flow is blocked between every consecutive pair of recorded components
        assert blocked_pairs(shown) == {
            (lab(G, 1, 1, 0, True), lab(S, 1, 1, 0, True)),
            (lab(S, 1, 1, 0, True), lab(G, 2, 2, 0, True)),
            (lab(G, 2, 2, 0, True), lab(S, 2, 2, 0, True)),
        }
        # the live ladder stops at the first recorded component
        g = build(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY)
        assert g.labels == (lab(G, 0, 0, 0), lab(S, 0, 0, 0), lab(G, 1, 1, 0, ready=True))
        assert len(g.edges) == 2 and not blocked_pairs(g)
        assert_live_ladder_of(g, shown)

    def test_emit_first_chain(self):
        # A0 D0 + A1*D1* (+) A0*D1* (+) A1*D2* (+) A0*D2*
        shown = displayed(ts.Configuration.LAMBDA, ts.LaserDrive.STRONG_ONLY)
        assert set(shown.labels) == {
            lab(G, 0, 0, 0),
            lab(S, 1, 1, 0, ready=True),
            lab(G, 1, 1, 0, ready=True),
            lab(S, 2, 2, 0, ready=True),
            lab(G, 2, 2, 0, ready=True),
        }
        assert len(shown.edges) == 4
        assert len(blocked_pairs(shown)) == 3
        g = build(ts.Configuration.LAMBDA, ts.LaserDrive.STRONG_ONLY)
        assert g.labels == (lab(G, 0, 0, 0), lab(S, 1, 1, 0, ready=True))
        assert len(g.edges) == 1 and not blocked_pairs(g)
        assert_live_ladder_of(g, shown)

    def test_first_edge_carries_flow(self):
        for conf in (ts.Configuration.V, ts.Configuration.LAMBDA):
            g = build(conf, ts.LaserDrive.STRONG_ONLY)
            live = ts.active_edges(chain_from_graph(g))
            assert live == g.edges
            assert any(e.source == g.root for e in live)


class TestWeakOnlyChains:
    def test_absorb_first_never_marks(self):
        # {A0 + A2 + A0 w1 + A2 w1 + A0 w2 ...} never touches the detector
        g = build(ts.Configuration.V, ts.LaserDrive.WEAK_ONLY)
        assert all(not l.ready for l in g.labels)
        assert {(l.atom, l.weak) for l in g.labels} == {
            (G, 0), (W, 0), (G, 1), (W, 1), (G, 2),
        }

    def test_emit_first_weak_counts(self):
        g = build(ts.Configuration.LAMBDA, ts.LaserDrive.WEAK_ONLY)
        assert {(l.atom, l.weak) for l in g.labels} == {
            (G, 0), (W, 1), (G, 1), (W, 2), (G, 2),
        }
        assert all(not l.ready for l in g.labels)


class TestBothLasersV:
    def test_depth_one_structure(self):
        g = build(ts.Configuration.V, depth=1)
        # strong branch, weak cycle, and its strong completion
        expected_core = {
            lab(G, 0, 0, 0),
            lab(S, 0, 0, 0),
            lab(G, 1, 1, 0, ready=True),
            lab(W, 0, 0, 0),
            lab(G, 0, 0, 1),
            lab(S, 0, 0, 1),
            lab(G, 1, 1, 1, ready=True),
        }
        assert expected_core <= set(g.labels)
        ready = {l for l in g.labels if l.ready}
        assert lab(G, 1, 1, 0, ready=True) in ready
        assert lab(G, 1, 1, 1, ready=True) in ready

    def test_weak_branch_shares_root_current(self):
        g = build(ts.Configuration.V, depth=2)
        outgoing = [e for e in g.edges if e.source == g.root]
        kinds = {e.kind for e in outgoing}
        assert kinds == {ts.EdgeKind.STRONG_ABSORB, ts.EdgeKind.WEAK_ABSORB}

    def test_weak_emit_is_terminal_in_cycle(self):
        g = build(ts.Configuration.V, depth=2)
        # the weak cycle's first edge pumps up, the photon appears on the way back
        wa = [e for e in g.edges if e.kind is ts.EdgeKind.WEAK_ABSORB and e.source == g.root]
        assert len(wa) == 1
        we = [e for e in g.edges if e.kind is ts.EdgeKind.WEAK_EMIT and e.source == wa[0].target]
        assert len(we) == 1
        assert we[0].target.weak == 1

    def test_second_weak_cycle_at_depth_two(self):
        g = build(ts.Configuration.V, depth=2)
        assert any(l.weak == 2 for l in g.labels)
        assert not any(l.weak == 3 for l in g.labels)


class TestBothLasersLambda:
    def test_weak_branch_first_edge_creates_photon(self):
        g = build(ts.Configuration.LAMBDA, depth=1)
        outgoing = {e.kind: e for e in g.edges if e.source == g.root}
        assert ts.EdgeKind.WEAK_EMIT in outgoing
        assert outgoing[ts.EdgeKind.WEAK_EMIT].target == lab(W, 0, 0, 1)

    def test_unmarked_weak_sector(self):
        g = build(ts.Configuration.LAMBDA, depth=2)
        assert not lab(W, 0, 0, 1).ready
        assert lab(G, 0, 0, 1) in set(g.labels)
        assert not any(l.ready and l.clicks == 0 for l in g.labels)

    def test_weak_completion_reaches_detector(self):
        g = build(ts.Configuration.LAMBDA, depth=2)
        assert lab(S, 1, 1, 1, ready=True) in set(g.labels)


class TestCascades:
    def test_weak_up_merges_emitfirst_strong_with_absorbfirst_weak(self):
        g = build(ts.Configuration.CASCADE_WEAK_UP, depth=1)
        out = {e.kind for e in g.edges if e.source == g.root}
        assert out == {ts.EdgeKind.STRONG_EMIT, ts.EdgeKind.WEAK_ABSORB}
        assert lab(S, 1, 1, 0, ready=True) in set(g.labels)
        assert lab(W, 0, 0, 0) in set(g.labels)

    def test_weak_down_merges_absorbfirst_strong_with_emitfirst_weak(self):
        g = build(ts.Configuration.CASCADE_WEAK_DOWN, depth=1)
        out = {e.kind for e in g.edges if e.source == g.root}
        assert out == {ts.EdgeKind.STRONG_ABSORB, ts.EdgeKind.WEAK_EMIT}
        assert lab(G, 1, 1, 0, ready=True) in set(g.labels)
        assert lab(W, 0, 0, 1) in set(g.labels)


#: Whether the weak photon ends the weak cycle (and so the dark period) or begins it.
WEAK_PHOTON_AT_END = {
    ts.Configuration.V: True,
    ts.Configuration.LAMBDA: False,
    ts.Configuration.CASCADE_WEAK_UP: True,
    ts.Configuration.CASCADE_WEAK_DOWN: False,
}


@pytest.mark.parametrize("conf", list(ts.Configuration))
def test_structural_weak_timing(conf):
    """The photon-creating edge sits at the stated end of every weak cycle."""
    g = build(conf, depth=2)
    at_end = WEAK_PHOTON_AT_END[conf]
    for e in g.edges:
        if e.kind is ts.EdgeKind.WEAK_EMIT:
            if at_end:
                # photon emitted on the way down from the weak level
                assert e.source.atom is W and e.target.atom is G
            else:
                # photon emitted on the way into the weak level
                assert e.source.atom is G and e.target.atom is W
        if e.kind is ts.EdgeKind.WEAK_ABSORB:
            if at_end:
                assert e.source.atom is G and e.target.atom is W
            else:
                assert e.source.atom is W and e.target.atom is G


class TestDepthAndExtension:
    def test_invalid_depth(self):
        with pytest.raises(InvalidDepth):
            build(ts.Configuration.V, depth=0)

    def test_extension_equals_deeper_build(self):
        # marked, a strong-only ladder ends at its first click and has no frontier
        assert not build(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY).frontier
        for lasers, marks in ((ts.LaserDrive.STRONG_ONLY, False), (ts.LaserDrive.BOTH, True)):
            kind = ts.ConfigKind(ts.Configuration.V, lasers)
            g2 = ts.build_epoch(kind, ROOT, RATES, 2, marks)
            target = next(iter(g2.frontier))
            g3 = ts.extend_frontier(g2, target)
            direct = ts.build_epoch(kind, ROOT, RATES, 3, marks)
            assert set(g3.labels) == set(direct.labels)
            assert set(g3.edges) == set(direct.edges)

    def test_extending_twice_is_depth_plus_two(self):
        g = build(ts.Configuration.V, depth=1)
        g2 = ts.extend_frontier(g, next(iter(g.frontier)))
        g3 = ts.extend_frontier(g2, next(iter(g2.frontier)))
        direct = build(ts.Configuration.V, depth=3)
        assert set(g3.labels) == set(direct.labels)

    def test_extension_adds_second_weak_cycle(self):
        g1 = build(ts.Configuration.V, depth=1)
        ground_frontier = [l for l in g1.frontier if l.atom is G and not l.ready]
        assert ground_frontier, "the weak branch should be extensible at depth 1"
        g2 = ts.extend_frontier(g1, ground_frontier[0])
        assert any(l.weak == 2 for l in g2.labels)

    def test_not_extensible(self):
        g = build(ts.Configuration.V, depth=2)
        with pytest.raises(NotExtensible):
            ts.extend_frontier(g, g.root)

    def test_epoch_renewal_isomorphism(self):
        for conf in ts.Configuration:
            kind = ts.ConfigKind(conf)
            g0 = build(conf, depth=2)
            # take the realized label of the strong branch's first hit
            sink = min(
                (l for l in g0.labels if l.ready and l.weak == 0),
                key=lambda l: l.clicks,
            )
            g1 = ts.build_epoch(kind, sink.without_marks(), RATES, 2)
            assert root_shifted(g1) == root_shifted(ts.build_epoch(kind, g1.root, RATES, 2))
            # roots of equal atom level renew the same shape
            g1b = ts.build_epoch(
                kind, replace(sink.without_marks(), clicks=sink.clicks + 3,
                              strong=sink.strong + 3, weak=sink.weak + 1), RATES, 2
            )
            assert root_shifted(g1) == root_shifted(g1b)


def test_root_has_no_inflow():
    for conf in ts.Configuration:
        g = build(conf, depth=2)
        assert all(e.target != g.root for e in g.edges)


def test_graphs_are_acyclic():
    for conf in ts.Configuration:
        g = build(conf, depth=2)
        state = chain_from_graph(g)
        integrate_exact_oracle(state, g.edges, 0.0)  # raises on cycles


def test_every_edge_runs_forward_in_label_order():
    """Each edge's source is listed before its target.

    The crossing stages' reachability sweep and ``flow.expm``'s exact
    triangular squaring both rely on it.
    """
    for conf in ts.Configuration:
        for lasers in ts.LaserDrive:
            for marks in (True, False):
                for depth in range(1, 9):
                    for atom in ts.AtomLevel:
                        g = ts.build_epoch(
                            ts.ConfigKind(conf, lasers), lab(atom, 0, 0, 0), RATES, depth, marks
                        )
                        index = {label: i for i, label in enumerate(g.labels)}
                        backward = [e for e in g.edges if index[e.source] >= index[e.target]]
                        assert not backward, (conf, lasers, marks, depth, atom, backward[0])


#: Labels and edges the ladder adds per rung, from a ground root with both lasers.
RUNG = {
    ts.Configuration.V: 4,
    ts.Configuration.CASCADE_WEAK_DOWN: 4,
    ts.Configuration.LAMBDA: 3,
    ts.Configuration.CASCADE_WEAK_UP: 3,
}


@pytest.mark.parametrize("depth", (1, 2, 8, 16, 53))
@pytest.mark.parametrize("conf", list(ts.Configuration), ids=lambda c: c.value)
def test_live_ladder_grows_linearly_with_depth(conf, depth):
    """Each weak cycle adds one rung and one ready sink; nothing lies behind a sink."""
    g = build(conf, depth=depth)
    n = RUNG[conf] * depth + RUNG[conf] - 1
    assert len(g.labels) == n
    assert len(g.edges) == n - 1
    assert sum(l.ready for l in g.labels) == depth + 1
    assert not any(e.source.ready for e in g.edges)
