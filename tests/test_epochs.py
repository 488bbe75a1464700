"""The compiled epoch: the one representation of an epoch that both engines share."""

import numpy as np
import pytest

import telegraphsim as ts
from telegraphsim import configurations, epochs, runner
from telegraphsim.config import RunConfig
from telegraphsim.epochs import CompiledEpoch, CrossingStage

from references import chain_from_graph, displayed_epoch, template_from_chain

RATES = ts.RateSet(k_weak_absorb=0.1, k_weak_emit=0.1)
KINDS = [ts.ConfigKind(c, lasers) for c in ts.Configuration for lasers in ts.LaserDrive]


def kind_id(kind):
    return f"{kind.configuration.value}-{kind.lasers.value}"


def compile_epoch(kind, atom):
    graph = ts.build_epoch(kind, ts.ComponentLabel(atom, 0, 0, 0), RATES, 2)
    return CompiledEpoch(graph)


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
@pytest.mark.parametrize("atom", list(ts.AtomLevel), ids=lambda a: a.name.lower())
def test_compiled_template_equals_template_from_chain(kind, atom):
    ep = compile_epoch(kind, atom)
    chain = ts.ChainState(ep.system.labels, ep.root_masses, ep.system.edges)
    ref = template_from_chain(chain, ts.active_edges(chain))
    tpl = ep.template
    assert tpl.system is ep.system
    assert tpl.labels == ref.labels
    assert tpl.sink_labels == ref.sink_labels
    assert tpl.masses.tobytes() == ref.masses.tobytes()
    assert tpl.cum_final.tobytes() == ref.cum_final.tobytes()
    # ready targets: the marked live labels, as chain positions in chain order
    assert [ep.system.labels[i] for i in ep.ready_idx] == [
        lab for lab in chain.labels if lab.ready
    ]
    assert ep.ready_idx == tuple(i for i, lab in enumerate(chain.labels) if lab in set(ep.ready))


def test_compiled_epoch_is_the_live_subgraph_with_the_same_law(monkeypatch):
    """A compiled epoch keeps only labels that carry mass, and drops no delivery.

    Every configuration, laser setting and root atom at depths 1, 2, 5 and 8.
    Each compiled label holds positive mass somewhere on the template grid.
    Each ready target of the displayed chain (``references.displayed_epoch``)
    that the compiled epoch lacks receives exactly nothing in the displayed
    chain's template, and the kept targets' delivery curves agree with the
    displayed chain's. The grid's size does not matter here, so the
    templates run on 300 cells a piece.
    """
    monkeypatch.setattr(epochs, "CELLS_PER_PIECE", 300)
    dropped = 0
    for depth in (1, 2, 5, 8):
        for kind in KINDS:
            for atom in ts.AtomLevel:
                case = f"{kind_id(kind)} root {atom.name} depth {depth}"
                root = ts.ComponentLabel(atom, 0, 0, 0)
                tpl = CompiledEpoch(ts.build_epoch(kind, root, RATES, depth)).template
                assert (tpl.masses > 0.0).any(axis=0).all(), case
                chain = chain_from_graph(displayed_epoch(kind, root, RATES, depth))
                full = template_from_chain(chain, ts.active_edges(chain))
                assert tpl.grid.tobytes() == full.grid.tobytes(), case
                kept = [full.sink_labels.index(lab) for lab in tpl.sink_labels]
                lost = [j for j in range(len(full.sink_labels)) if j not in kept]
                assert not full.delivered[:, lost].any(), case
                gap = np.abs(tpl.delivered - full.delivered[:, kept]).max(initial=0.0)
                assert gap <= 1e-13, case
                dropped += len(lost)
    assert dropped > 0


def test_steps_engine_builds_each_graph_once(monkeypatch):
    """One build per root atom per trajectory, at the configured depth only.

    At weak/strong ratio 1.0 mass reaches the depth frontier within an
    epoch; it stays there, and no deeper graph is built.
    """
    built = []
    original = configurations.build_epoch

    def counting(kind, root, rates, depth, *args):
        built.append((root.atom, depth))
        return original(kind, root, rates, depth, *args)

    monkeypatch.setattr(runner, "build_epoch", counting)
    monkeypatch.setattr(configurations, "build_epoch", counting)
    cfg = RunConfig(
        kind="lambda", k_weak_absorb=1.0, k_weak_emit=1.0, duration=100.0, master_seed=17,
        engine="steps",
    )
    res = runner.run_trajectory(cfg, 0)
    assert res.epochs > 10
    assert len(built) == len(set(built))
    assert {depth for _, depth in built} == {cfg.depth}


def reference_sample_hit(tpl, u):
    """The scalar inversion that ``sample_hits`` vectorizes, and which branch it took."""
    total = float(tpl.cum_final[-1])
    if u >= total:
        j = int(np.argmax(tpl.final_delivered))
        return (j, float(tpl.grid[-1])), "beyond"
    j = int(np.searchsorted(tpl.cum_final, u, side="right"))
    v = u - (float(tpl.cum_final[j - 1]) if j > 0 else 0.0)
    col = np.ascontiguousarray(tpl.delivered[:, j])
    k = int(np.searchsorted(col, v, side="left"))
    k = min(max(k, 1), len(col) - 1)
    lo, hi = col[k - 1], col[k]
    frac = 0.0 if hi <= lo else (v - lo) / (hi - lo)
    t = float(tpl.grid[k - 1] + frac * (tpl.grid[k] - tpl.grid[k - 1]))
    return (j, t), "flat" if hi <= lo else "slope"


def inversion_inputs(tpl):
    """Uniforms at every boundary of the inversion, plus random ones."""
    cum = tpl.cum_final
    below = np.nextafter(cum, -np.inf)
    u = [0.0, *cum, *below[below >= 0], *np.nextafter(cum, np.inf)]
    # values inside the flat stretches of each delivery column
    for j in range(len(tpl.sink_labels)):
        col = tpl.delivered[:, j]
        flat = np.flatnonzero(col[1:] <= col[:-1]) + 1
        start = cum[j - 1] if j else 0.0
        u.extend(start + col[flat[:: max(1, len(flat) // 20)]])
    u.extend(np.random.default_rng(5).random(500))
    u.extend([cum[-1], (cum[-1] + 1.0) / 2, np.nextafter(1.0, 0.0)])  # the residual branch
    u = np.array(u)
    return u[(u >= 0.0) & (u < 1.0)]


def preloaded_sink_template():
    """Two sinks, one fed from the root and one holding mass from the start.

    The second sink's delivery column is flat, so every draw that lands on it
    takes the flat-stretch rule (hi <= lo); no configuration's template has
    such a column.
    """
    src = ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0)
    fed = ts.ComponentLabel(ts.AtomLevel.GROUND, 1, 1, 0, True)
    preloaded = ts.ComponentLabel(ts.AtomLevel.STRONG, 1, 1, 0, True)
    edge = ts.FlowEdge(src, fed, 1.0, ts.EdgeKind.STRONG_EMIT)
    state = ts.ChainState([src, fed, preloaded], [0.7, 0.0, 0.3], [edge])
    return template_from_chain(state, [edge])


def test_sample_hits_equals_scalar_inversion():
    """Bitwise, for every configuration, laser setting and root atom."""
    cases = [
        (f"{kind_id(kind)} root {atom.name}", compile_epoch(kind, atom).template)
        for kind in KINDS
        for atom in ts.AtomLevel
    ]
    cases.append(("preloaded sink", preloaded_sink_template()))
    branches = set()
    for case, tpl in cases:
        if not tpl.sink_labels:
            assert not tpl.has_sinks, case
            continue
        u = inversion_inputs(tpl)
        j, t = tpl.sample_hits(u)
        for i, x in enumerate(u.tolist()):
            (rj, rt), branch = reference_sample_hit(tpl, x)
            branches.add(branch)
            assert (int(j[i]), t[i].tobytes()) == (rj, np.float64(rt).tobytes()), f"{case}: u={x!r}"
        # the one-draw form is a view of the same inversion
        assert tpl.sample_hit(float(u[1])) == (tpl.sink_labels[j[1]], float(t[1])), case
    # interpolation, the flat-stretch rule (hi <= lo) and the residual branch all ran
    assert branches == {"slope", "flat", "beyond"}


def reference_stages(tpl):
    """Every sink's crossing stages as they were first built, one sink at a time.

    For each sink, each weak edge whose target reaches the sink by a
    depth-first search is a stage. Its lag curve is read at the sink from a
    1-D impulse propagation at the edge's target; that propagation does not
    depend on the sink, so it is made once per target. Returns, per sink,
    (edge, flux rate, lag density) triples ordered by weak-photon count.
    """
    adj = {}
    for e in tpl.system.edges:
        adj.setdefault(e.source, []).append(e.target)
    arrivals = {}
    for e in tpl.system.edges:
        if e.kind is ts.EdgeKind.WEAK_EMIT and e.target not in arrivals:
            m = np.zeros(len(tpl.labels))
            m[tpl.index[e.target]] = 1.0
            rows = [m]
            for P, count in tpl._pieces:
                for _ in range(count):
                    m = P @ m
                    rows.append(m)
            arrivals[e.target] = np.array(rows)
    cells = np.diff(tpl.grid)
    out = {}
    for sink in tpl.sink_labels:
        stages = []
        for i, e in enumerate(tpl.system.edges):
            if e.kind is not ts.EdgeKind.WEAK_EMIT:
                continue
            seen, stack = {e.target}, [e.target]
            while stack:
                for nxt in adj.get(stack.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if sink not in seen:
                continue
            flux = tpl.system.rates[i] * tpl.masses[:, tpl.index[e.source]]
            lag_cum = np.maximum.accumulate(arrivals[e.target][:, tpl.index[sink]])
            dens = np.zeros_like(lag_cum)
            dens[1:] = np.diff(lag_cum) / cells
            stages.append((e, flux, dens))
        stages.sort(key=lambda s: s[0].target.weak)
        out[sink] = stages
    return out


@pytest.mark.parametrize(
    "cells, ratios, depths, n_pairs",
    [(300, (1e-3, 0.1, 1.0), (1, 2, 5, 8), 1650), (epochs.CELLS_PER_PIECE, (0.1,), (2,), 30)],
    ids=["coarse_grid", "template_grid"],
)
def test_crossing_stages_equal_the_per_sink_construction(
    monkeypatch, cells, ratios, depths, n_pairs
):
    """Every configuration, laser setting and root atom, against ``reference_stages``.

    The reference finds stages by search, independently of the template's
    weak-count rule. Neither construction depends on the grid's size, so the
    sweep over ratios and depths runs on 300 cells a piece to keep it fast;
    the template's own grid is checked at ratio 0.1 and depth 2. Crossing
    times agree to 1e-9 of tau within 20 weak lifetimes. Beyond that the lag
    densities are near their rounding floor (``np.diff`` of a saturated
    cumulative curve), and a one-ulp change in one cell moves the median by
    about 1e-5, so the bound there is 1e-6 of tau, up to depth 5. At depth 8
    the template's blocks of propagator powers round those densities
    differently from the reference's single steps, and the medians there
    differ by up to 2.1e-6 of tau, so they are not compared.
    """
    monkeypatch.setattr(epochs, "CELLS_PER_PIECE", cells)
    pairs = 0
    for ratio in ratios:
        rates = ts.RateSet(k_weak_absorb=ratio, k_weak_emit=ratio)
        for depth in depths:
            for kind in KINDS:
                for atom in ts.AtomLevel:
                    case = f"{kind_id(kind)} root {atom.name} ratio {ratio} depth {depth}"
                    graph = ts.build_epoch(kind, ts.ComponentLabel(atom, 0, 0, 0), rates, depth)
                    if not any(lab.ready for lab in graph.labels):
                        continue  # nothing to cross into
                    tpl = CompiledEpoch(graph).template
                    assert set(tpl.crossing_stages) == set(tpl.sink_labels), case
                    _, taus = tpl.sample_hits(np.array([0.3, 0.7, 0.95, 0.9999, 1 - 1e-6]))
                    for sink, ref in reference_stages(tpl).items():
                        got = tpl.crossing_stages[sink]
                        assert [s.edge for s in got] == [e for e, _, _ in ref], case
                        pairs += len(ref)
                        for s, (_, flux, dens) in zip(got, ref):
                            assert s.flux_rate.tobytes() == flux.tobytes(), case
                            assert np.abs(s.lag_density - dens).max() <= 1e-12 * dens.max(), case
                        if not ref:
                            continue
                        for tau in taus.tolist():
                            if depth > 5 and tau * ratio > 20.0:
                                continue
                            want = [
                                tpl._conditional_median(CrossingStage(e, flux, dens), tau)
                                for e, flux, dens in ref
                            ]
                            c = [c for _, c in tpl.crossing_times(sink, tau)]
                            tol = (1e-9 if tau * ratio <= 20.0 else 1e-6) * tau
                            assert np.abs(np.subtract(c, want)).max() <= tol, f"{case} tau={tau}"
    assert pairs == n_pairs


def test_one_propagation_for_every_stage(monkeypatch, tmp_path):
    """The root curves and the stages of every sink take one pass each."""
    calls = []
    real = epochs.propagate

    def counting(*args, **kwargs):
        calls.append(args[0].ndim)
        return real(*args, **kwargs)

    monkeypatch.setattr(epochs, "propagate", counting)
    rates = ts.RateSet(k_weak_absorb=0.1, k_weak_emit=0.1)
    kind = ts.ConfigKind(ts.Configuration.V, ts.LaserDrive.BOTH)
    graph = ts.build_epoch(kind, ts.ComponentLabel(ts.AtomLevel.GROUND, 0, 0, 0), rates, 5)
    tpl = CompiledEpoch(graph).template
    assert len(calls) == 1
    _, taus = tpl.sample_hits(np.linspace(0.0, 0.999, 7))
    crossed = [sink for sink in tpl.sink_labels for tau in taus if tpl.crossing_times(sink, tau)]
    assert len(set(crossed)) > 1
    assert calls == [1, 2]  # the root's vector, then one matrix of impulses

    calls.clear()
    cfg = RunConfig(kind="v", duration=1e-9, out=str(tmp_path / "out"))
    assert runner.run(cfg) == 0
    assert len(calls) == 1

