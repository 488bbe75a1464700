"""The compiled epoch: the one representation of an epoch that both engines share."""

import numpy as np
import pytest

import telegraphsim as ts
from telegraphsim import configurations, runner
from telegraphsim.config import RunConfig
from telegraphsim.epochs import CompiledEpoch, EpochTemplate

RATES = ts.RateSet(k_weak_absorb=0.1, k_weak_emit=0.1)
KINDS = [ts.ConfigKind(c, lasers) for c in ts.Configuration for lasers in ts.LaserDrive]


def kind_id(kind):
    return f"{kind.configuration.value}-{kind.lasers.value}"


def compile_epoch(kind, atom, depth=2):
    graph = ts.build_epoch(kind, ts.make_label(atom, 0, 0, 0), RATES, depth)
    return CompiledEpoch(graph, ts.active_edges(ts.chain_from_graph(graph)))


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
@pytest.mark.parametrize("atom", list(ts.AtomLevel), ids=lambda a: a.name.lower())
def test_compiled_template_equals_template_from_chain(kind, atom):
    ep = compile_epoch(kind, atom)
    chain = ts.chain_from_graph(ts.build_epoch(kind, ts.make_label(atom, 0, 0, 0), RATES, 2))
    ref = EpochTemplate.from_chain(chain, ts.active_edges(chain))
    tpl = ep.template
    assert tpl.system is ep.system
    assert tpl.labels == ref.labels
    assert tpl.sink_labels == ref.sink_labels
    assert tpl.masses.tobytes() == ref.masses.tobytes()
    assert tpl.cum_final.tobytes() == ref.cum_final.tobytes()
    # ready targets: the marked labels, as chain positions in chain order
    assert [ep.system.labels[i] for i in ep.ready_idx] == [
        lab for lab in chain.labels if lab.ready.any()
    ]
    assert ep.ready_idx == ts.ready_indices(chain.labels, ep.ready)


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_index_map_carries_every_mass(kind):
    shallow = compile_epoch(kind, ts.AtomLevel.GROUND, depth=2)
    deep = compile_epoch(kind, ts.AtomLevel.GROUND, depth=3)
    index = shallow.index_in(deep)
    assert len(set(index.tolist())) == len(shallow.graph.labels)
    masses = np.random.default_rng(0).random(len(shallow.graph.labels))
    carried = np.zeros(len(deep.graph.labels))
    carried[index] = masses
    for lab, m in zip(shallow.graph.labels, masses):
        assert carried[deep.system.index[lab]] == m
    assert np.count_nonzero(carried) == len(masses)


def test_steps_engine_builds_each_graph_once(monkeypatch):
    """One build per (root atom, depth) per trajectory, extensions included."""
    built = []
    original = configurations.build_epoch

    def counting(kind, root, rates, depth, *args):
        built.append((root.atom, depth))
        return original(kind, root, rates, depth, *args)

    monkeypatch.setattr(runner, "build_epoch", counting)
    monkeypatch.setattr(configurations, "build_epoch", counting)
    cfg = RunConfig(kind="lambda", k_weak_absorb=0.1, k_weak_emit=0.1, duration=100.0)
    res = runner.run_trajectory_steps(cfg, runner.derive_rng(17, 0))
    assert res.epochs > 10 and res.extensions > 0
    assert len(built) == len(set(built))
    assert {depth for _, depth in built} > {cfg.depth}
