import numpy as np
import pytest

import telegraphsim as ts
from telegraphsim.runner import derive_rng

from conftest import make_single_edge, make_two_branch, root_shifted, run_hits_until_collapse
from references import chain_from_graph, displayed_epoch

G, S, W = ts.AtomLevel.GROUND, ts.AtomLevel.STRONG, ts.AtomLevel.WEAK
STRONG_V = ts.ConfigKind(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY)


class TestMarkReady:
    def test_strong_emission_into_detector_sets_both_marks(self):
        parent = ts.ComponentLabel(S, 0, 0, 0)
        child = ts.ComponentLabel(G, 1, 1, 0)
        assert ts.is_decoherent(parent, child)
        g = ts.build_epoch(STRONG_V, parent, ts.RateSet(), 1)
        assert child.with_marks() in g.labels and child not in g.labels

    def test_weak_absorption_leaves_no_marks(self):
        parent = ts.ComponentLabel(G, 0, 0, 0)
        child = ts.ComponentLabel(W, 0, 0, 0)
        assert not ts.is_decoherent(parent, child)
        weak_v = ts.ConfigKind(ts.Configuration.V, ts.LaserDrive.WEAK_ONLY)
        assert child in ts.build_epoch(weak_v, parent, ts.RateSet(), 1).labels

    def test_strong_absorption_leaves_no_marks(self):
        parent = ts.ComponentLabel(G, 0, 0, 0)
        child = ts.ComponentLabel(S, 0, 0, 0)
        assert not ts.is_decoherent(parent, child)
        assert child in ts.build_epoch(STRONG_V, parent, ts.RateSet(), 1).labels

    def test_children_of_ready_components_stay_ready(self):
        # laser absorption inside the recorded sector keeps the marks
        parent = ts.ComponentLabel(G, 1, 1, 0, True)
        child = ts.ComponentLabel(S, 1, 1, 0)
        assert ts.is_decoherent(parent, child)
        # so every edge out of a ready label is blocked, and build_epoch takes none
        root = ts.ComponentLabel(G, 0, 0, 0)
        shown = displayed_epoch(STRONG_V, root, ts.RateSet(), 2)
        out = [e for e in shown.edges if e.source.ready]
        assert out and all(e.target.ready for e in out)
        g = ts.build_epoch(STRONG_V, root, ts.RateSet(), 2)
        assert not any(e.source.ready for e in g.edges)


class TestBlockedEdges:
    def test_recorded_pair_is_blocked(self):
        a = ts.ComponentLabel(G, 1, 1, 0, True)
        b = ts.ComponentLabel(S, 1, 1, 0, True)
        e = ts.FlowEdge(a, b, 1.0, ts.EdgeKind.STRONG_ABSORB)
        state = ts.ChainState([a, b], [1.0, 0.0], [e])
        assert ts.active_edges(state) == ()

    def test_unmarked_source_is_not_blocked(self):
        a = ts.ComponentLabel(S, 1, 1, 0)
        b = ts.ComponentLabel(G, 2, 2, 0, True)
        e = ts.FlowEdge(a, b, 1.0, ts.EdgeKind.STRONG_EMIT)
        state = ts.ChainState([a, b], [1.0, 0.0], [e])
        assert ts.active_edges(state) == (e,)

    def test_empty_chain(self):
        root = ts.ComponentLabel(G, 0, 0, 0)
        assert ts.active_edges(ts.ChainState([root], [1.0])) == ()

    def test_deeper_recorded_pair_also_blocked(self):
        a = ts.ComponentLabel(G, 2, 2, 0, True)
        b = ts.ComponentLabel(S, 2, 2, 0, True)
        e = ts.FlowEdge(a, b, 1.0, ts.EdgeKind.STRONG_ABSORB)
        state = ts.ChainState([a, b], [0.0, 0.0], [e])
        assert e not in ts.active_edges(state)


class TestTrigger:
    def test_full_delivery_makes_hit_certain(self):
        state, edge, src, dst = make_single_edge(rate=1.0)
        for seed in range(30):
            hit, _ = run_hits_until_collapse(
                state, (edge,), frozenset({dst}), derive_rng(seed, 0), t_max=200.0
            )
            assert hit is not None
            assert hit.target == dst

    def test_zero_inflow_phantom_never_hit(self):
        # frozen mass on a target with no current: hit probability exactly 0
        src = ts.ComponentLabel(G, 0, 0, 0)
        phantom = ts.ComponentLabel(G, 1, 1, 0, True)
        other = ts.ComponentLabel(S, 0, 0, 0)
        e = ts.FlowEdge(src, other, 1.0, ts.EdgeKind.STRONG_ABSORB)
        state = ts.ChainState([src, phantom, other], [0.1, 0.9, 0.0], [e])
        rng = derive_rng(1, 0)
        s = state
        for _ in range(2000):
            s, report = ts.step(s, (e,), 0.01)
            assert ts.trigger(report, (s.labels.index(phantom),), 0.01, rng) is None

    def test_branch_fractions_follow_delivered_mass(self):
        m = 0.9
        state, edges, b1, b2 = make_two_branch(m)
        ready = frozenset({b1, b2})
        n = 1500
        wins = 0
        for seed in range(n):
            hit, _ = run_hits_until_collapse(state, edges, ready, derive_rng(seed, 1))
            wins += hit.target == b1
        sigma = np.sqrt(n * m * (1 - m))
        assert abs(wins - n * m) < 3 * sigma

    def test_no_draws_without_targets(self):
        state, edge, *_ = make_single_edge()
        _, report = ts.step(state, [edge], 0.01)
        rng = derive_rng(0, 0)
        before = rng.bit_generator.state
        assert ts.trigger(report, (), 0.01, rng) is None
        assert rng.bit_generator.state == before


class TestCollapse:
    def test_next_epoch_graph_renews_shifted(self):
        # collapsing and rebuilding gives the same chain shape one click over
        kind = ts.ConfigKind(ts.Configuration.V, ts.LaserDrive.STRONG_ONLY)
        rates = ts.RateSet()
        root0 = ts.ComponentLabel(G, 0, 0, 0)
        g0 = ts.build_epoch(kind, root0, rates, 2)
        realized = ts.ComponentLabel(G, 1, 1, 0)
        g1 = ts.build_epoch(kind, realized, rates, 2)
        assert root_shifted(g0) == root_shifted(g1)


class TestModes:
    def test_no_observer_profile_disables_everything(self):
        # no marks, so nothing is blocked and no hit has a target
        from telegraphsim.config import RunConfig
        from telegraphsim.runner import _CompiledEpochs

        epochs = _CompiledEpochs(RunConfig(kind="v", mode="original_no_observer"))
        for atom in ts.AtomLevel:
            ep = epochs[atom]
            state = chain_from_graph(ep.graph)
            assert not any(lab.ready for lab in ep.graph.labels) and not ep.ready_idx
            assert ts.active_edges(state) == ep.graph.edges == ep.system.edges

    def test_with_observer_equals_full_rules(self):
        from telegraphsim.config import RunConfig
        from telegraphsim.runner import _CompiledEpochs

        nurules = _CompiledEpochs(RunConfig(kind="v", mode="nurules"))
        observer = _CompiledEpochs(RunConfig(kind="v", mode="original_with_observer"))
        assert observer.key == nurules.key
        graph = observer[ts.AtomLevel.GROUND].graph
        assert graph.marks and any(lab.ready for lab in graph.labels)
        assert graph == ts.build_epoch(graph.kind, graph.root, graph.rates, graph.depth)

    def test_no_observer_run_has_zero_hits(self):
        from telegraphsim.config import RunConfig
        from telegraphsim.runner import run_trajectory

        cfg = RunConfig(kind="v", mode="original_no_observer", duration=100.0)
        res = run_trajectory(cfg, 0)
        assert len(ts.hits(res.records)) == 0

    def test_no_observer_runs_the_flow_driver_on_every_engine(self):
        from dataclasses import replace

        from telegraphsim.config import RunConfig
        from telegraphsim.runner import run_trajectory

        cfg = RunConfig(
            kind="v", mode="original_no_observer", duration=100.0,
            k_weak_absorb=0.1, k_weak_emit=0.1, master_seed=17,
        )
        results = [run_trajectory(replace(cfg, engine=e), 0) for e in ("auto", "renewal", "steps")]
        logs = {ts.serialize_log(r.records) for r in results}
        assert len(logs) == 1
        for r in results:
            assert r.stationarity_residual is not None

    def test_mode_equivalence_identical_logs(self):
        from telegraphsim.config import RunConfig
        from telegraphsim.runner import run_trajectory

        a = run_trajectory(RunConfig(kind="v", duration=500.0, master_seed=5), 0)
        b = run_trajectory(
            RunConfig(kind="v", duration=500.0, master_seed=5, mode="original_with_observer"),
            0,
        )
        assert ts.serialize_log(a.records) == ts.serialize_log(b.records)

    def test_engines_agree_on_hit_statistics(self):
        # same law, two routes: event-driven sampling vs per-step hazards;
        # compared on the strong-only chain, whose inter-hit distribution
        # has no heavy dark tail to drown the comparison in variance
        from dataclasses import replace

        from telegraphsim.config import RunConfig
        from telegraphsim.runner import run_trajectory

        gaps_r, gaps_s = [], []
        for seed in range(4):
            cfg = RunConfig(
                kind="v", lasers="strong_only", duration=800.0, master_seed=seed
            )
            r = run_trajectory(replace(cfg, engine="renewal"), 0)
            s = run_trajectory(replace(cfg, engine="steps"), 0)
            gaps_r.extend(np.diff([x.time for x in ts.hits(r.records)]))
            gaps_s.extend(np.diff([x.time for x in ts.hits(s.records)]))
        mean_r, mean_s = np.mean(gaps_r), np.mean(gaps_s)
        # ~1600 gaps per engine, sigma of the mean ~ 0.035
        assert mean_r == pytest.approx(2.0, abs=0.15)
        assert mean_s == pytest.approx(2.0, abs=0.15)
        assert abs(mean_r - mean_s) < 0.15

    def test_strong_only_mean_interhit_time(self):
        # mean cycle time = 1/k_absorb + 1/k_emit
        from telegraphsim.config import RunConfig
        from telegraphsim.runner import run_trajectory

        cfg = RunConfig(kind="v", lasers="strong_only", duration=4000.0, master_seed=2)
        res = run_trajectory(cfg, 0)
        times = [r.time for r in ts.hits(res.records)]
        gaps = np.diff(times)
        expected = 1.0 / cfg.k_strong_absorb + 1.0 / cfg.k_strong_emit
        assert np.mean(gaps) == pytest.approx(expected, rel=0.1)
