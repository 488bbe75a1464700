"""Every epoch graph the builder makes, pinned by a digest.

For each configuration and laser drive, the graphs at depths 1, 2, 3, 5
and 8, with and without ready marks, from four roots (an empty ledger, a
ledger of 3 clicks and 2 weak photons, a STRONG root and a marked WEAK
root) are hashed together: the label keys in order, the edges in order
(source, target, ``repr`` of the rate, kind) and the sorted frontier. A
change to how graphs are built that moves any label, edge, rate or
frontier label, or their order, changes a digest.
"""

import hashlib

import pytest

import telegraphsim as ts

G, S, W = ts.AtomLevel.GROUND, ts.AtomLevel.STRONG, ts.AtomLevel.WEAK
# a distinct rate per edge kind, so an edge given another kind's rate shows
RATES = ts.RateSet(k_strong_absorb=1.0, k_strong_emit=0.9, k_weak_absorb=0.1, k_weak_emit=1 / 30)
DEPTHS = (1, 2, 3, 5, 8)
ROOTS = (
    ts.make_label(G, 0, 0, 0),
    ts.make_label(G, 3, 3, 2),
    ts.make_label(S, 1, 1, 0),
    ts.make_label(W, 2, 2, 1, ts.BOTH_MARKS),
)

DIGESTS = {
    "v-strong_only": "0a0517723d88def0ba6450c96e158ae342a41470a261b55d6f0687329e504385",
    "v-weak_only": "898192033f5bbe38dade4b27383b0a79b0a7f18c2a35a3eb53ac30ff54500082",
    "v-both": "1f478b7b8264687f629e9d4d8446e74b5099cb8cf4dc8165de04efaea8d44118",
    "lambda-strong_only": "716615e287afaf90f1895bd453ca055ee22bbd143743e954b8928f2fa2d8516c",
    "lambda-weak_only": "06513c7cb2c7991513daa36c0a29603a19ab421f0858a2ef82c258733a052a8b",
    "lambda-both": "9bb2a7814ded94cdaebb81908db320fce237c0aa036043478bcd8104eeece516",
    "cascade_weak_up-strong_only": "716615e287afaf90f1895bd453ca055ee22bbd143743e954b8928f2fa2d8516c",
    "cascade_weak_up-weak_only": "898192033f5bbe38dade4b27383b0a79b0a7f18c2a35a3eb53ac30ff54500082",
    "cascade_weak_up-both": "e0c99ce5a19899cd955d1ab92cf36dde71511ea665e70c16e4404e761da93f03",
    "cascade_weak_down-strong_only": "0a0517723d88def0ba6450c96e158ae342a41470a261b55d6f0687329e504385",
    "cascade_weak_down-weak_only": "06513c7cb2c7991513daa36c0a29603a19ab421f0858a2ef82c258733a052a8b",
    "cascade_weak_down-both": "67c2b6aa7f535059e794b30db67476a22e68b4251cca42ec325b25a65673c217",
}


def key(label):
    r = label.ready
    return (label.atom.value, label.clicks, label.strong, label.weak, r.atom_ready, r.detector_ready)


def graph_text(graph):
    labels = [key(lab) for lab in graph.labels]
    edges = [(key(e.source), key(e.target), repr(e.rate), e.kind.value) for e in graph.edges]
    frontier = sorted(key(lab) for lab in graph.frontier)
    return repr((labels, edges, frontier))


def digest(kind):
    h = hashlib.sha256()
    for depth in DEPTHS:
        for marks in (True, False):
            for root in ROOTS:
                graph = ts.build_epoch(kind, root, RATES, depth, marks)
                h.update(graph_text(graph).encode())
    return h.hexdigest()


CASES = [(c, d) for c in ts.Configuration for d in ts.LaserDrive]


@pytest.mark.parametrize("conf, lasers", CASES, ids=[f"{c.value}-{d.value}" for c, d in CASES])
def test_graphs_match_their_recorded_digest(conf, lasers):
    assert digest(ts.ConfigKind(conf, lasers)) == DIGESTS[f"{conf.value}-{lasers.value}"]


if __name__ == "__main__":
    for c, d in CASES:
        print(f'    "{c.value}-{d.value}": "{digest(ts.ConfigKind(c, d))}",')
