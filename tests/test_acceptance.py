"""Acceptance suite: one test per criterion, tolerances pinned inline.

Each test prints a PASS line with the measured quantities so a full
``pytest tests/test_acceptance.py -v -s`` reads as a checklist.
"""

import time

import numpy as np
import pytest

import telegraphsim as ts
from telegraphsim.config import RunConfig
from telegraphsim.epochs import EpochTemplate
from telegraphsim.runner import (
    derive_rng,
    run_trajectory,
    run_trajectory_flow,
    run_trajectory_renewal,
    run_trajectory_steps,
)

from conftest import make_two_branch

G, S, W = ts.AtomLevel.GROUND, ts.AtomLevel.STRONG, ts.AtomLevel.WEAK
RATES = ts.RateSet()
WEAK_SHARE = 1e-3 / (1.0 + 1e-3)  # 0.000999001, the two-exit closed form


def test_criterion_1_conservation_and_collapse_postconditions():
    """10^6-step V run: mass conserved to 1e-7, clean collapses, < 30 s."""
    cfg = RunConfig(kind="v", duration=1e9, master_seed=42, engine="steps")
    t0 = time.perf_counter()
    res = run_trajectory_steps(cfg, derive_rng(42, 0), max_steps=1_000_000)
    elapsed = time.perf_counter() - t0
    assert res.steps_taken == 1_000_000
    assert res.max_mass_residual < 1e-7
    assert res.collapses > 100
    assert res.collapse_check_failures == 0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 1 PASS: 1e6 steps, max |mass-1| = {res.max_mass_residual:.2e}, "
        f"{res.collapses} collapses all clean, {elapsed:.1f}s"
    )


def _golden_graphs():
    mk = ts.make_label
    return [
        ("strong-only absorb-first", ts.Configuration.V, ts.LaserDrive.STRONG_ONLY, mk(G, 0, 0, 0)),
        ("V both lasers (renewed root)", ts.Configuration.V, ts.LaserDrive.BOTH, mk(G, 1, 1, 0)),
        ("strong-only emit-first", ts.Configuration.LAMBDA, ts.LaserDrive.STRONG_ONLY, mk(G, 0, 0, 0)),
        ("Lambda both lasers", ts.Configuration.LAMBDA, ts.LaserDrive.BOTH, mk(G, 0, 0, 0)),
        ("cascade weak-up", ts.Configuration.CASCADE_WEAK_UP, ts.LaserDrive.BOTH, mk(G, 0, 0, 0)),
        ("cascade weak-down", ts.Configuration.CASCADE_WEAK_DOWN, ts.LaserDrive.BOTH, mk(G, 0, 0, 0)),
    ]


def test_criterion_2_blocked_edges_carry_exactly_zero():
    """Instrumented flow across every blocked edge of the depth-2 goldens is 0.0."""
    total_blocked = 0
    for name, conf, lasers, root in _golden_graphs():
        graph = ts.build_epoch(ts.ConfigKind(conf, lasers), root, RATES, 2)
        state = ts.chain_from_graph(graph)
        blocked = ts.blocked_edges(state)
        assert blocked, f"{name}: depth-2 golden graph must contain blocked edges"
        total_blocked += len(blocked)
        active = ts.active_edges(state)
        # components fed exclusively through blocked edges must stay at 0.0
        blocked_only = {
            lab
            for lab in state.labels
            if any(e.target == lab for e in blocked)
            and not any(e.target == lab for e in active)
        }
        s = state
        for _ in range(400):
            s, report = ts.step(s, active, 0.05)
            for e in blocked:
                assert report.current_on(e) == 0.0
            for lab in blocked_only:
                assert s.mass_of(lab) == 0.0
        # and the active generator carries no coupling for any blocked edge
        sys_ = ts.FlowSystem(state.labels, active)
        for e in blocked:
            i, j = sys_.index[e.target], sys_.index[e.source]
            assert sys_.generator[i, j] == 0.0
    print(f"\nACCEPTANCE 2 PASS: {total_blocked} blocked edges, transported mass exactly 0.0")


def test_criterion_3_trigger_calibration():
    """Hit fractions match delivered masses within 3 binomial sigma; < 60 s."""
    t0 = time.perf_counter()
    lines = []
    for m in (0.5, 0.9, 0.999):
        state, edges, b1, b2 = make_two_branch(m)
        # closed-form and brute-force oracles agree on the deliveries
        oracle = ts.integrate_exact_oracle(state, edges, 30.0)
        assert oracle.mass_of(b1) == pytest.approx(m, abs=1e-6)
        assert oracle.mass_of(b2) == pytest.approx(1.0 - m, abs=1e-6)

        tpl = EpochTemplate.from_chain(state, edges)
        rng = derive_rng(2024, 0)
        n = 10_000
        wins = sum(1 for _ in range(n) if tpl.sample_hit(rng.random())[0] == b1)
        sigma = np.sqrt(n * m * (1 - m))
        dev = abs(wins - n * m) / sigma
        assert dev < 3.0
        lines.append(f"m={m}: {wins}/{n} ({dev:.2f} sigma)")

    # the per-step trigger implements the same law
    m = 0.9
    state, edges, b1, b2 = make_two_branch(m)
    ready = ts.ready_indices(state.labels, {b1, b2})
    system = ts.FlowSystem(state.labels, edges)
    n = 2000
    wins = 0
    for seed in range(n):
        rng = derive_rng(77, seed)
        s = state
        hit = None
        while hit is None:
            s, report = ts.step(s, edges, 0.01, system)
            hit = ts.trigger(report, ready, 0.01, rng)
        wins += hit.target == b1
    dev = abs(wins - n * m) / np.sqrt(n * m * (1 - m))
    assert dev < 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 3 PASS: {'; '.join(lines)}; step engine m=0.9 "
        f"{wins}/{n} ({dev:.2f} sigma); {elapsed:.1f}s"
    )


def test_criterion_4_telegraph_emergence():
    """V run at ratio 1e-3 shows dark intervals at the closed-form branch share."""
    cfg = RunConfig(kind="v", duration=2e6, master_seed=42)
    res = run_trajectory_renewal(cfg, derive_rng(42, 0))
    seg = ts.segment_telegraph(res.records, cfg.resolved_threshold())
    darks = len(seg.dark_intervals)
    n = res.epochs
    expected = n * WEAK_SHARE
    sigma = np.sqrt(n * WEAK_SHARE * (1 - WEAK_SHARE))
    assert darks >= 5
    assert abs(darks - expected) < 3 * sigma

    control = RunConfig(kind="v", lasers="strong_only", duration=1e5, master_seed=42)
    res_c = run_trajectory_renewal(control, derive_rng(42, 0))
    seg_c = ts.segment_telegraph(res_c.records, control.resolved_threshold())
    assert len(seg_c.dark_intervals) == 0
    print(
        f"\nACCEPTANCE 4 PASS: {darks} dark intervals over {n} cycles "
        f"(expected {expected:.0f} +- {sigma:.0f}); strong-only control: 0 darks"
    )


TIMING_EXPECTATIONS = [
    ("v", ts.WeakTiming.AT_END),
    ("cascade_weak_up", ts.WeakTiming.AT_END),
    ("lambda", ts.WeakTiming.AT_START),
    ("cascade_weak_down", ts.WeakTiming.AT_START),
]


def test_criterion_5_weak_photon_timing():
    """>= 50 darks per configuration, 100% correctly classified, < 5% ambiguous."""
    lines = []
    for kind, expected in TIMING_EXPECTATIONS:
        cfg = RunConfig(kind=kind, duration=6e5, master_seed=1234)
        res = run_trajectory_renewal(cfg, derive_rng(1234, 0))
        seg = ts.segment_telegraph(res.records, cfg.resolved_threshold())
        rep = ts.classify_weak_timing(res.records, seg, cfg.config_kind(), cfg.rate_set())
        n_dark = len(seg.dark_intervals)
        n_amb = rep.count(ts.WeakTiming.AMBIGUOUS)
        n_expected = rep.count(expected)
        assert n_dark >= 50, f"{kind}: only {n_dark} dark intervals"
        assert n_expected == len(rep.non_ambiguous), f"{kind}: misclassified interval"
        assert n_amb / n_dark < 0.05, f"{kind}: ambiguous fraction {n_amb / n_dark:.3f}"
        lines.append(f"{kind}: {n_expected}/{n_dark} {expected.value}, {n_amb} ambiguous")

    # structural counterpart: photon-edge position in every builder
    for conf in ts.Configuration:
        kind = ts.ConfigKind(conf)
        pos = ts.weak_edge_position(kind)
        graph = ts.build_epoch(kind, ts.make_label(G, 0, 0, 0), RATES, 2)
        for e in graph.edges:
            if e.kind is ts.EdgeKind.WEAK_EMIT:
                if pos is ts.WeakEdgePosition.TERMINAL_IN_WEAK_CYCLE:
                    assert e.source.atom is W  # emitted leaving the weak level
                else:
                    assert e.target.atom is W  # emitted entering the weak level
    print("\nACCEPTANCE 5 PASS: " + "; ".join(lines) + "; structural positions hold")


def test_criterion_6_eventual_hit_guarantee():
    """1000 V trajectories: the post-dark collapse always arrives in time."""
    weak_cycle = 1.0 / RATES.k_weak_absorb + 1.0 / RATES.k_weak_emit
    bound = 50.0 * weak_cycle
    kind = ts.ConfigKind(ts.Configuration.V)
    graph = ts.build_epoch(kind, ts.make_label(G, 0, 0, 0), RATES, 2)
    chain = ts.chain_from_graph(graph)
    tpl = EpochTemplate.from_chain(chain, ts.active_edges(chain))
    carries_weak = tpl.sink_ledger[:, 2] > 0
    worst = 0.0
    for i in range(1000):
        rng = derive_rng(9000, i)
        # run epochs until this trajectory's first dark period has collapsed;
        # a block of draws inverted at once gives the same epochs as one draw each
        while True:
            sinks, taus, _ = tpl.sample_hits(rng.random(4096))
            dark = np.flatnonzero(carries_weak[sinks])
            taus = taus[: dark[0] + 1] if dark.size else taus
            worst = max(worst, float(taus.max()))
            assert np.all(taus < bound)
            if dark.size:
                break
    print(
        f"\nACCEPTANCE 6 PASS: 1000 trajectories through their first dark period, "
        f"longest epoch {worst:.0f} < {bound:.0f}"
    )


def test_criterion_7_original_rules_modes():
    """No-observer: zero hits and a stationary profile; with-observer: identical log."""
    cfg = RunConfig(kind="v", mode="original_no_observer", duration=2000.0, master_seed=3)
    res = run_trajectory_flow(cfg, derive_rng(3, 0))
    assert len(ts.hits(res.records)) == 0
    assert res.stationarity_residual is not None
    assert res.stationarity_residual < 1e-6

    nurules = run_trajectory(RunConfig(kind="v", duration=2e4, master_seed=11), 0)
    observer = run_trajectory(
        RunConfig(kind="v", duration=2e4, master_seed=11, mode="original_with_observer"), 0
    )
    log_a = ts.serialize_log(nurules.records)
    log_b = ts.serialize_log(observer.records)
    assert log_a == log_b
    print(
        f"\nACCEPTANCE 7 PASS: no-observer 0 hits, max |dm/dt| = "
        f"{res.stationarity_residual:.2e} < 1e-6; with-observer log byte-identical "
        f"({len(log_a)} bytes)"
    )


def test_criterion_8_oracle_equivalence():
    """Coarse stepping matches the fine-step oracle to 1e-6 on all four graphs."""
    checkpoints = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 40.0, 50.0]
    worst = 0.0
    for conf in ts.Configuration:
        graph = ts.build_epoch(ts.ConfigKind(conf), ts.make_label(G, 0, 0, 0), RATES, 2)
        state = ts.chain_from_graph(graph)
        active = ts.active_edges(state)
        system = ts.FlowSystem(state.labels, active)
        stepped = state
        oracle = state
        t = 0.0
        for tc in checkpoints:
            while t < tc - 1e-12:
                stepped, _ = ts.step(stepped, active, min(0.01, tc - t), system)
                t = stepped.time
            oracle = ts.integrate_exact_oracle(oracle, active, tc - oracle.time)
            diff = float(np.max(np.abs(stepped.masses - oracle.masses)))
            worst = max(worst, diff)
            assert diff < 1e-6
    print(
        f"\nACCEPTANCE 8 PASS: 4 configurations x 10 checkpoints, "
        f"worst per-component deviation {worst:.2e} < 1e-6"
    )


def test_criterion_9_determinism(tmp_path):
    """Identical config and master seed give byte-identical logs and reports."""
    from telegraphsim.runner import run

    outputs = []
    for name in ("a", "b"):
        cfg = RunConfig(
            kind="v", duration=2e4, master_seed=314, trajectories=2,
            out=str(tmp_path / name),
        )
        assert run(cfg) == 0
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted((tmp_path / name).iterdir())
            }
        )
    assert outputs[0].keys() == outputs[1].keys()
    for fname in outputs[0]:
        assert outputs[0][fname] == outputs[1][fname], f"{fname} differs between runs"
    print(
        f"\nACCEPTANCE 9 PASS: {len(outputs[0])} output files byte-identical across reruns"
    )
