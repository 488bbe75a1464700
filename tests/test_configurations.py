"""Golden structural checks of the four configuration builders.

The depth-2 chains are asserted label by label against the displayed
term sequences: which components exist, which carry ready marks, and
where flow is blocked.
"""

import pytest

import telegraphsim as ts
from telegraphsim.errors import InvalidDepth, NoWeakBranch, NotExtensible

from conftest import root_shifted

G, S, W = ts.AtomLevel.GROUND, ts.AtomLevel.STRONG, ts.AtomLevel.WEAK
RATES = ts.RateSet()
ROOT = ts.make_label(G, 0, 0, 0)


def lab(atom, clicks, strong, weak, ready=False):
    return ts.make_label(atom, clicks, strong, weak, ts.BOTH_MARKS if ready else None)


def build(conf, lasers=ts.LaserDrive.BOTH, depth=2, root=ROOT):
    return ts.build_epoch(ts.ConfigKind(conf, lasers), root, RATES, depth)


def blocked_pairs(graph):
    state = ts.chain_from_graph(graph)
    return {(e.source, e.target) for e in ts.blocked_edges(state)}


class TestStrongOnlyChains:
    def test_absorb_first_chain(self):
        # (A0 + A1) D0 + A0*D1* (+) A1*D1* (+) A0*D2* (+) A1*D2*
        g = build(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY)
        assert set(g.labels) == {
            lab(G, 0, 0, 0),
            lab(S, 0, 0, 0),
            lab(G, 1, 1, 0, ready=True),
            lab(S, 1, 1, 0, ready=True),
            lab(G, 2, 2, 0, ready=True),
            lab(S, 2, 2, 0, ready=True),
        }
        assert len(g.edges) == 5
        # flow is blocked between every consecutive pair of recorded components
        assert blocked_pairs(g) == {
            (lab(G, 1, 1, 0, True), lab(S, 1, 1, 0, True)),
            (lab(S, 1, 1, 0, True), lab(G, 2, 2, 0, True)),
            (lab(G, 2, 2, 0, True), lab(S, 2, 2, 0, True)),
        }

    def test_emit_first_chain(self):
        # A0 D0 + A1*D1* (+) A0*D1* (+) A1*D2* (+) A0*D2*
        g = build(ts.Configuration.LAMBDA, ts.LaserDrive.STRONG_ONLY)
        assert set(g.labels) == {
            lab(G, 0, 0, 0),
            lab(S, 1, 1, 0, ready=True),
            lab(G, 1, 1, 0, ready=True),
            lab(S, 2, 2, 0, ready=True),
            lab(G, 2, 2, 0, ready=True),
        }
        assert len(g.edges) == 4
        assert len(blocked_pairs(g)) == 3

    def test_first_edge_carries_flow(self):
        for conf in (ts.Configuration.V, ts.Configuration.LAMBDA):
            g = build(conf, ts.LaserDrive.STRONG_ONLY)
            state = ts.chain_from_graph(g)
            live = ts.active_edges(state)
            assert any(e.source == g.root for e in live)


class TestWeakOnlyChains:
    def test_absorb_first_never_marks(self):
        # {A0 + A2 + A0 w1 + A2 w1 + A0 w2 ...} never touches the detector
        g = build(ts.Configuration.V, ts.LaserDrive.WEAK_ONLY)
        assert all(not l.ready.any() for l in g.labels)
        assert {(l.atom, l.weak) for l in g.labels} == {
            (G, 0), (W, 0), (G, 1), (W, 1), (G, 2),
        }

    def test_emit_first_weak_counts(self):
        g = build(ts.Configuration.LAMBDA, ts.LaserDrive.WEAK_ONLY)
        assert {(l.atom, l.weak) for l in g.labels} == {
            (G, 0), (W, 1), (G, 1), (W, 2), (G, 2),
        }
        assert all(not l.ready.any() for l in g.labels)


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
        ready = set(g.ready_labels)
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
        assert not lab(W, 0, 0, 1).ready.any()
        assert lab(G, 0, 0, 1) in set(g.labels)
        assert not any(l.ready.any() and l.clicks == 0 for l in g.labels)

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


@pytest.mark.parametrize(
    "conf,expected",
    [
        (ts.Configuration.V, ts.WeakEdgePosition.TERMINAL_IN_WEAK_CYCLE),
        (ts.Configuration.LAMBDA, ts.WeakEdgePosition.INITIAL_IN_WEAK_CYCLE),
        (ts.Configuration.CASCADE_WEAK_UP, ts.WeakEdgePosition.TERMINAL_IN_WEAK_CYCLE),
        (ts.Configuration.CASCADE_WEAK_DOWN, ts.WeakEdgePosition.INITIAL_IN_WEAK_CYCLE),
    ],
)
def test_weak_edge_position(conf, expected):
    assert ts.weak_edge_position(ts.ConfigKind(conf)) is expected


def test_weak_edge_position_needs_both_lasers():
    with pytest.raises(NoWeakBranch):
        ts.weak_edge_position(ts.ConfigKind(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY))


@pytest.mark.parametrize("conf", list(ts.Configuration))
def test_structural_weak_timing(conf):
    """The photon-creating edge sits at the stated end of every weak cycle."""
    kind = ts.ConfigKind(conf)
    g = build(conf, depth=2)
    position = ts.weak_edge_position(kind)
    for e in g.edges:
        if e.kind is ts.EdgeKind.WEAK_EMIT:
            if position is ts.WeakEdgePosition.TERMINAL_IN_WEAK_CYCLE:
                # photon emitted on the way down from the weak level
                assert e.source.atom is W and e.target.atom is G
            else:
                # photon emitted on the way into the weak level
                assert e.source.atom is G and e.target.atom is W
        if e.kind is ts.EdgeKind.WEAK_ABSORB:
            if position is ts.WeakEdgePosition.TERMINAL_IN_WEAK_CYCLE:
                assert e.source.atom is G and e.target.atom is W
            else:
                assert e.source.atom is W and e.target.atom is G


class TestDepthAndExtension:
    def test_invalid_depth(self):
        with pytest.raises(InvalidDepth):
            build(ts.Configuration.V, depth=0)

    def test_extension_equals_deeper_build(self):
        g2 = build(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY, depth=2)
        target = next(iter(g2.frontier))
        g3 = ts.extend_frontier(g2, target)
        direct = build(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY, depth=3)
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
        ground_frontier = [l for l in g1.frontier if l.atom is G and not l.ready.any()]
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
                (l for l in g0.ready_labels if l.weak == 0),
                key=lambda l: l.clicks,
            )
            g1 = ts.build_epoch(kind, sink.without_marks(), RATES, 2)
            assert root_shifted(g1) == root_shifted(ts.build_epoch(kind, g1.root, RATES, 2))
            # roots of equal atom level renew the same shape
            g1b = ts.build_epoch(
                kind, sink.without_marks().shifted(clicks=3, strong=3, weak=1), RATES, 2
            )
            assert root_shifted(g1) == root_shifted(g1b)


def test_root_has_no_inflow():
    for conf in ts.Configuration:
        g = build(conf, depth=2)
        assert all(e.target != g.root for e in g.edges)


def test_graphs_are_acyclic():
    for conf in ts.Configuration:
        g = build(conf, depth=2)
        state = ts.chain_from_graph(g)
        ts.integrate_exact_oracle(state, g.edges, 0.0)  # raises on cycles
