import pytest

import telegraphsim as ts


@pytest.fixture
def default_rates():
    return ts.RateSet()


def make_two_branch(m: float, k_total: float = 2.0):
    """Two ready sinks fed from one source with delivered split m : 1-m."""
    k1 = m * k_total
    k2 = (1.0 - m) * k_total
    src = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    b1 = ts.make_label(ts.AtomLevel.GROUND, 1, 1, 0, ts.BOTH_MARKS)
    b2 = ts.make_label(ts.AtomLevel.STRONG, 1, 1, 0, ts.BOTH_MARKS)
    e1 = ts.FlowEdge(src, b1, k1, ts.EdgeKind.STRONG_EMIT)
    e2 = ts.FlowEdge(src, b2, k2, ts.EdgeKind.STRONG_EMIT)
    state = ts.ChainState([src, b1, b2], [1.0, 0.0, 0.0], [e1, e2])
    return state, (e1, e2), b1, b2


def make_single_edge(rate: float = 1.0):
    src = ts.make_label(ts.AtomLevel.GROUND, 0, 0, 0)
    dst = ts.make_label(ts.AtomLevel.GROUND, 1, 1, 0, ts.BOTH_MARKS)
    edge = ts.FlowEdge(src, dst, rate, ts.EdgeKind.STRONG_EMIT)
    state = ts.ChainState([src, dst], [1.0, 0.0], [edge])
    return state, edge, src, dst


def run_hits_until_collapse(state, edges, ready, rng, dt=0.01, t_max=1e6):
    """Drive the step engine until the trigger fires; returns the hit or None."""
    ready_idx = ts.ready_indices(state.labels, ready)
    system = ts.FlowSystem(state.labels, edges)
    s = state
    while s.time < t_max:
        s, report = ts.step(s, edges, dt, system)
        hit = ts.trigger(report, ready_idx, dt, rng)
        if hit is not None:
            return hit, s
    return None, s


def root_shifted(graph):
    """A graph's labels and edges with the root's photon ledger subtracted."""
    r = graph.root

    def back(lab):
        return lab.shifted(clicks=-r.clicks, strong=-r.strong, weak=-r.weak)

    return (
        {back(lab) for lab in graph.labels},
        {(back(e.source), back(e.target), e.kind) for e in graph.edges},
    )


def labels_of(graph):
    return {str(lab) for lab in graph.labels}
