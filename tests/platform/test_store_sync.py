"""The platform's store sync.

A sync reconciles only the contexts the platform owns (the default
context and the three LOD corpus contexts), re-annotates only new or
edited items, and must leave those contexts exactly where a
from-scratch rebuild would: the differential oracle below replays
every op sequence on a fresh :class:`Platform` and compares.
"""

import random
from dataclasses import replace

import pytest

from repro.core.annotator import SemanticAnnotator, build_default_annotator
from repro.core.filtering import SemanticFilter
from repro.lod import build_lod_corpus
from repro.platform import Platform
from repro.platform.models import Capture
from repro.rdf.terms import Literal, URIRef
from repro.resolvers import default_resolvers
from repro.resolvers.broker import SemanticBroker
from repro.resolvers.resilience import FlakyResolver
from repro.store import QuadStore, StoreGraph
from repro.workloads.generator import WorkloadConfig, generate_workload

SCRATCH = "http://repro.local/loadgen/scratch"
SCRATCH_QUAD = (
    URIRef("http://repro.local/loadgen/op/1"),
    URIRef("http://repro.local/loadgen/vocab#payload"),
    Literal("write-1"),
)


@pytest.fixture(scope="module")
def annotators():
    """Two annotators that disagree on most titles (the second keeps
    no noun phrase), shared by the live and the from-scratch
    platforms."""
    corpus = build_lod_corpus()
    return (
        build_default_annotator(corpus),
        build_default_annotator(corpus, np_min_score=1.1),
    )


def _owned_contexts(platform):
    return [None] + list(platform.corpus.named_graphs())


def _context_triples(store, context):
    return set(store.graph(context).triples())


def _expected_store(platform):
    expected = QuadStore(name="oracle")
    expected.sync_dataset(platform.triple_store())
    return expected


# ---------------------------------------------------------------------------
# foreign contexts survive
# ---------------------------------------------------------------------------

def test_upload_sync_keeps_foreign_quads():
    """A quad another writer put in its own context must survive the
    platform's syncs (it used to go from 1 to 0 on the first upload)."""
    platform = Platform()
    platform.register_user("alice")
    store = QuadStore()
    platform.attach_store(store)
    StoreGraph(store, SCRATCH).add(SCRATCH_QUAD)
    assert len(_context_triples(store, SCRATCH)) == 1

    item = platform.upload(Capture(
        username="alice", title="Tramonto sulla Mole Antonelliana",
        tags=("mole",), timestamp=1000,
    ))
    evaluator = platform.evaluator()

    assert _context_triples(store, SCRATCH) == {SCRATCH_QUAD}
    assert evaluator.evaluate(f"ASK {{ <{item.resource}> ?p ?o }}")
    assert evaluator.evaluate(f"ASK {{ <{SCRATCH_QUAD[0]}> ?p ?o }}")


def test_attach_is_one_generation_over_owned_contexts():
    platform = Platform()
    platform.register_user("alice")
    store = QuadStore()
    StoreGraph(store, SCRATCH).add(SCRATCH_QUAD)
    before = store.generation

    platform.attach_store(store)

    assert store.generation == before + 1
    assert set(store.contexts()) == set(_owned_contexts(platform)) | {
        URIRef(SCRATCH)
    }
    # nothing changed: the next sync commits nothing
    assert platform.synchronize_store() == store.generation


# ---------------------------------------------------------------------------
# the annotation memo
# ---------------------------------------------------------------------------

class _CountingAnnotator:
    """Wraps an annotator and counts the items it annotates."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def annotate(self, title, tags, *args, **kwargs):
        self.calls += 1
        return self.inner.annotate(title, tags, *args, **kwargs)


def test_only_new_or_edited_items_are_annotated(annotators):
    counting = _CountingAnnotator(annotators[0])
    platform = Platform(annotator=counting)
    world = generate_workload(WorkloadConfig(n_users=3, n_contents=6))
    for username in world.usernames:
        platform.register_user(username)
    items = [platform.upload(capture) for capture in world.captures[:5]]
    platform.attach_store(QuadStore())
    assert counting.calls == 5

    platform.upload(world.captures[5])
    platform.evaluator()
    assert counting.calls == 6

    platform.rate(items[0].pid, 4.0)  # no annotated field changed
    platform.evaluator()
    assert counting.calls == 6

    platform.edit_content(items[1].pid, title="Palazzo Madama di sera")
    platform.evaluator()
    assert counting.calls == 7

    platform.edit_content(items[2].pid, tags=["museo", "egizio"])
    platform.evaluator()
    assert counting.calls == 8

    # a different annotator invalidates every stored result
    replacement = _CountingAnnotator(annotators[1])
    platform.annotator = replacement
    platform.rate(items[0].pid, 2.0)
    platform.evaluator()
    assert replacement.calls == 6


def _flaky_annotator():
    """An annotator whose every resolver fails the first call per
    input and succeeds afterwards."""
    corpus = build_lod_corpus()
    resolvers = [
        FlakyResolver(resolver, fail_first=1)
        for resolver in default_resolvers(corpus)
    ]
    return SemanticAnnotator(
        SemanticBroker(resolvers), SemanticFilter(corpus)
    )


def test_degraded_result_is_reannotated_on_next_sync(annotators):
    platform = Platform(annotator=_flaky_annotator())
    platform.register_user("alice")
    store = QuadStore()
    item = platform.upload(Capture(
        username="alice", title="Tramonto sulla Mole Antonelliana",
        tags=("mole", "torino"), timestamp=1000,
    ))
    platform.attach_store(store)
    degraded = platform.annotation_result(item.pid)
    assert degraded.broker_result.degraded
    assert not degraded.annotations

    platform.rate(item.pid, 3.0)  # any mutation triggers the next sync
    platform.synchronize_store()

    result = platform.annotation_result(item.pid)
    assert result is not degraded
    assert not result.broker_result.degraded
    assert result.annotations

    oracle = Platform(annotator=annotators[0])
    oracle.register_user("alice")
    oracle.upload(Capture(
        username="alice", title="Tramonto sulla Mole Antonelliana",
        tags=("mole", "torino"), timestamp=1000,
    ))
    oracle.rate(item.pid, 3.0)
    expected = _expected_store(oracle)
    for context in _owned_contexts(platform):
        assert _context_triples(store, context) == _context_triples(
            expected, context
        )
    assert result.annotations == oracle.annotation_result(
        item.pid
    ).annotations


# ---------------------------------------------------------------------------
# the differential oracle
# ---------------------------------------------------------------------------

_TITLES = (
    "Tramonto sulla Mole Antonelliana",
    "Palazzo Madama di sera",
    "a walk to the Museo Egizio",
    "Piazza Castello",
)
_TAGS = (("mole",), ("torino", "night"), ("museo", "egizio"), ())


def _apply(platform, annotators, op):
    kind, args = op[0], op[1:]
    if kind == "register_user":
        platform.register_user(*args)
    elif kind == "add_friendship":
        platform.add_friendship(*args)
    elif kind == "upload":
        return platform.upload(args[0]).pid
    elif kind == "rate":
        platform.rate(*args)
    elif kind == "edit_title":
        platform.edit_content(args[0], title=args[1])
    elif kind == "edit_tags":
        platform.edit_content(args[0], tags=list(args[1]))
    elif kind == "annotate_region":
        platform.annotate_region(args[0], 0.1, 0.2, 0.3, 0.4, args[1])
    elif kind == "delete_content":
        platform.delete_content(args[0])
    elif kind == "annotator":
        platform.annotator = annotators[args[0]]
    else:  # pragma: no cover - the generator emits only the kinds above
        raise AssertionError(kind)
    return None


#: relative weight of each op kind, when it is valid
_WEIGHTS = {
    "register_user": 2, "add_friendship": 1, "upload": 4, "rate": 1,
    "edit_title": 1, "edit_tags": 1, "annotate_region": 1,
    "delete_content": 1, "annotator": 1, "sync": 3,
}


class _Model:
    """What the op generator needs to know of the platform's state."""

    def __init__(self, world):
        self.world = world
        self.users = []
        self.pids = []
        self.uploads = 0
        self.annotator = 0

    def valid_kinds(self):
        kinds = ["upload"] if self.users else []
        if len(self.users) < len(self.world.usernames):
            kinds.append("register_user")
        if len(self.users) >= 2:
            kinds.append("add_friendship")
        if self.pids:
            kinds += ["rate", "edit_title", "edit_tags",
                      "annotate_region", "delete_content"]
        return kinds + ["annotator", "sync"]

    def next_op(self, rng):
        """A random op that is valid for the current state."""
        kinds = self.valid_kinds()
        kind = rng.choices(kinds, [_WEIGHTS[k] for k in kinds])[0]
        if kind == "register_user":
            return (kind, self.world.usernames[len(self.users)])
        if kind == "add_friendship":
            return (kind, *rng.sample(self.users, 2))
        if kind == "upload":
            capture = self.world.captures[
                self.uploads % len(self.world.captures)
            ]
            return (kind, replace(capture, username=rng.choice(self.users)))
        if kind == "rate":
            return (kind, rng.choice(self.pids), float(rng.randint(0, 5)))
        if kind == "edit_title":
            return (kind, rng.choice(self.pids), rng.choice(_TITLES))
        if kind == "edit_tags":
            return (kind, rng.choice(self.pids), rng.choice(_TAGS))
        if kind == "annotate_region":
            return (kind, rng.choice(self.pids), f"note {rng.random()}")
        if kind == "delete_content":
            return (kind, rng.choice(self.pids))
        if kind == "annotator":
            return (kind, 1 - self.annotator)
        return (kind,)

    def record(self, op, pid):
        kind = op[0]
        if kind == "register_user":
            self.users.append(op[1])
        elif kind == "upload":
            self.uploads += 1
            self.pids.append(pid)
        elif kind == "delete_content":
            self.pids.remove(op[1])
        elif kind == "annotator":
            self.annotator = op[1]


def _check_against_scratch(platform, store, history, annotators):
    oracle = Platform(annotator=annotators[0])
    for op in history:
        _apply(oracle, annotators, op)
    expected = _expected_store(oracle)
    for context in _owned_contexts(platform):
        assert _context_triples(store, context) == _context_triples(
            expected, context
        ), f"context {context} after {len(history)} ops"
    for item in platform.contents():
        assert platform.annotation_result(item.pid) == \
            oracle.annotation_result(item.pid), f"pid {item.pid}"
    # the foreign writer's context is never touched
    assert _context_triples(store, SCRATCH) == {SCRATCH_QUAD}


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_incremental_sync_matches_from_scratch_rebuild(seed, annotators):
    rng = random.Random(seed)
    model = _Model(generate_workload(
        WorkloadConfig(n_users=4, n_contents=10, seed=seed)
    ))
    platform = Platform(annotator=annotators[0])
    store = QuadStore(name=f"oracle-{seed}")
    StoreGraph(store, SCRATCH).add(SCRATCH_QUAD)
    platform.attach_store(store)
    history = []
    syncs = 0
    for _ in range(40):
        op = model.next_op(rng)
        if op[0] == "sync":
            platform.synchronize_store()
            _check_against_scratch(platform, store, history, annotators)
            syncs += 1
            continue
        model.record(op, _apply(platform, annotators, op))
        history.append(op)
    platform.synchronize_store()
    _check_against_scratch(platform, store, history, annotators)
    kinds = {op[0] for op in history}
    assert syncs >= 3 and model.uploads >= 3
    assert {"annotator", "edit_title", "edit_tags"} <= kinds


def test_corpus_contexts_resync_when_a_corpus_graph_changes(annotators):
    corpus = build_lod_corpus(cached=False)
    platform = Platform(corpus=corpus, annotator=annotators[0])
    platform.register_user("alice")
    store = QuadStore()
    platform.attach_store(store)
    extra = (
        URIRef("http://dbpedia.org/resource/Lingotto"),
        URIRef("http://www.w3.org/2000/01/rdf-schema#label"),
        Literal("Lingotto"),
    )
    corpus.dbpedia.add(extra)

    platform.synchronize_store()

    dbpedia = next(iter(corpus.named_graphs()))
    assert extra in _context_triples(store, dbpedia)
    assert _context_triples(store, dbpedia) == set(corpus.dbpedia.triples())
