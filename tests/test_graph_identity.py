"""Every epoch graph the builder makes, and its compiled epoch, pinned by a digest.

For each configuration and laser drive, the graphs at depths 1, 2, 3, 5
and 8, with and without ready marks, from four roots (an empty ledger, a
ledger of 3 clicks and 2 weak photons, a STRONG root and a marked WEAK
root) are hashed together: the label keys in order, the edges in order
(source, target, ``repr`` of the rate, kind) and the sorted frontier. A
change to how graphs are built that moves any label, edge, rate or
frontier label, or their order, changes a digest.

The same graphs compiled as the engines compile them are hashed
separately: the flow system's labels and edges, in order, and the ready
targets. A change to which labels and edges an epoch's flow runs on
changes a ``COMPILED_DIGESTS`` entry. A graph is the live ladder its
compiled epoch runs on: the flow system holds its labels and edges as
built, and no edge leaves a ready label.

``python tests/test_graph_identity.py`` prints both tables, for a
deliberate re-record.
"""

import hashlib

import pytest

import telegraphsim as ts

G, S, W = ts.AtomLevel.GROUND, ts.AtomLevel.STRONG, ts.AtomLevel.WEAK
# a distinct rate per edge kind, so an edge given another kind's rate shows
RATES = ts.RateSet(k_strong_absorb=1.0, k_strong_emit=0.9, k_weak_absorb=0.1, k_weak_emit=1 / 30)
DEPTHS = (1, 2, 3, 5, 8)
ROOTS = (
    ts.ComponentLabel(G, 0, 0, 0),
    ts.ComponentLabel(G, 3, 3, 2),
    ts.ComponentLabel(S, 1, 1, 0),
    ts.ComponentLabel(W, 2, 2, 1, True),
)

DIGESTS = {
    "v-strong_only": "644f95321856c1462dde996ef449dc2c5e292d18c5c8b8b18a28e10a143a22a8",
    "v-weak_only": "898192033f5bbe38dade4b27383b0a79b0a7f18c2a35a3eb53ac30ff54500082",
    "v-both": "35cac3fc9c9f5e0d92a05c58e2edfb160e394950da00186cf6000314642d1ad5",
    "lambda-strong_only": "2c4175f934e1cc79fd8e62436b5c50e838d9900dc5a66ae38207e2740fe74710",
    "lambda-weak_only": "06513c7cb2c7991513daa36c0a29603a19ab421f0858a2ef82c258733a052a8b",
    "lambda-both": "e06e5addd033637a8e5d21f1d727551604a5ab720db457e02048d88354b9a44b",
    "cascade_weak_up-strong_only": "2c4175f934e1cc79fd8e62436b5c50e838d9900dc5a66ae38207e2740fe74710",
    "cascade_weak_up-weak_only": "898192033f5bbe38dade4b27383b0a79b0a7f18c2a35a3eb53ac30ff54500082",
    "cascade_weak_up-both": "5ae056c5b1e9e337aa3a1603c00a269419a8397919fa6802c777c94b05d554c8",
    "cascade_weak_down-strong_only": "644f95321856c1462dde996ef449dc2c5e292d18c5c8b8b18a28e10a143a22a8",
    "cascade_weak_down-weak_only": "06513c7cb2c7991513daa36c0a29603a19ab421f0858a2ef82c258733a052a8b",
    "cascade_weak_down-both": "96071a0bfcbf4286db713b8326242fc39dd5aef6905aceaab8a0a7a6662b84e7",
}
COMPILED_DIGESTS = {
    "v-strong_only": "e7a6ba72f813d34ff8db532fbb37b7868ed36e0b76713f07cce64b35a8ee2f9d",
    "v-weak_only": "b1a30065cfb9b3fc824b2ac33548e57dd7b7816911f53fe9601c3312a6e1798a",
    "v-both": "c6d1d6f13699eab30b33cf8c7ce60c4f822738d615183866070f437dca52f098",
    "lambda-strong_only": "3135b37eccf7d6dd2c398088e57f21730fef3fb85288a08897b9e3f782108465",
    "lambda-weak_only": "c22dda9bb6e4d0e610d3471299943bfae69f2283e9639e793710a906d2904b58",
    "lambda-both": "504cc38f9a438c8c19cbb6a44cd93cdd3ab04b41654ea77f10f67eada12b2df5",
    "cascade_weak_up-strong_only": "3135b37eccf7d6dd2c398088e57f21730fef3fb85288a08897b9e3f782108465",
    "cascade_weak_up-weak_only": "b1a30065cfb9b3fc824b2ac33548e57dd7b7816911f53fe9601c3312a6e1798a",
    "cascade_weak_up-both": "d7aca3921473152c0d6bbbac420bdca5a885ab90f3f30fe9028c8784499a2a88",
    "cascade_weak_down-strong_only": "e7a6ba72f813d34ff8db532fbb37b7868ed36e0b76713f07cce64b35a8ee2f9d",
    "cascade_weak_down-weak_only": "c22dda9bb6e4d0e610d3471299943bfae69f2283e9639e793710a906d2904b58",
    "cascade_weak_down-both": "f77ebd91ac19a2357b5271bf00efe0cefd87208d6d873a5f7bb3c97b832e11e3",
}


def key(label):
    # the flag twice, where labels once held an atom and a detector mark, so the digests hold
    r = label.ready
    return (label.atom.value, label.clicks, label.strong, label.weak, r, r)


def graph_text(graph):
    labels = [key(lab) for lab in graph.labels]
    edges = [(key(e.source), key(e.target), repr(e.rate), e.kind.value) for e in graph.edges]
    frontier = sorted(key(lab) for lab in graph.frontier)
    return repr((labels, edges, frontier))


def compiled_text(graph):
    ep = ts.CompiledEpoch(graph)
    labels = [key(lab) for lab in ep.system.labels]
    edges = [(key(e.source), key(e.target), repr(e.rate), e.kind.value) for e in ep.system.edges]
    ready = [key(lab) for lab in ep.ready]
    return repr((labels, edges, ready))


def digest(kind, text=graph_text):
    h = hashlib.sha256()
    for depth in DEPTHS:
        for marks in (True, False):
            for root in ROOTS:
                graph = ts.build_epoch(kind, root, RATES, depth, marks)
                h.update(text(graph).encode())
    return h.hexdigest()


CASES = [(c, d) for c in ts.Configuration for d in ts.LaserDrive]


@pytest.mark.parametrize("conf, lasers", CASES, ids=[f"{c.value}-{d.value}" for c, d in CASES])
def test_graphs_match_their_recorded_digest(conf, lasers):
    assert digest(ts.ConfigKind(conf, lasers)) == DIGESTS[f"{conf.value}-{lasers.value}"]


@pytest.mark.parametrize("conf, lasers", CASES, ids=[f"{c.value}-{d.value}" for c, d in CASES])
def test_compiled_epochs_match_their_recorded_digest(conf, lasers):
    kind = ts.ConfigKind(conf, lasers)
    assert digest(kind, compiled_text) == COMPILED_DIGESTS[f"{conf.value}-{lasers.value}"]


@pytest.mark.parametrize("conf, lasers", CASES, ids=[f"{c.value}-{d.value}" for c, d in CASES])
def test_compiled_epoch_runs_on_the_graph_as_built(conf, lasers):
    for depth in DEPTHS:
        for marks in (True, False):
            for root in ROOTS:
                graph = ts.build_epoch(ts.ConfigKind(conf, lasers), root, RATES, depth, marks)
                system = ts.CompiledEpoch(graph).system
                assert system.labels == graph.labels and system.edges == graph.edges
                assert not any(e.source.ready for e in graph.edges), (depth, marks, root)


if __name__ == "__main__":
    for name, text in (("DIGESTS", graph_text), ("COMPILED_DIGESTS", compiled_text)):
        print(f"{name} = {{")
        for c, d in CASES:
            print(f'    "{c.value}-{d.value}": "{digest(ts.ConfigKind(c, d), text)}",')
        print("}")
