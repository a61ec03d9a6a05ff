"""The three single-client, closed-loop workloads.

Each drives the program only through public calls, on the 240-content
world of :mod:`world`, and spends most of its time in a different
layer:

* ``ingest`` -- upload, then ``Platform.evaluator()``, then a query that
  must return the upload: the paper's upload -> D2R lift -> annotation
  -> store path.
* ``browse`` -- read-only requests: the Q1-Q3 albums, the M1 mashup,
  search suggestions and paged browsing. SPARQL execution dominates;
  nothing is annotated or written.
* ``review`` -- three-quad review commits to an on-disk store that
  fsyncs every commit; every 10th op reads its own write and one album
  from a fresh evaluator, every 500th op checkpoints. The store write
  path dominates, and every read lands on a new store generation.

A schedule is a pure function of the workload and the seed. Correctness
checks run outside the timed intervals; a failed check fails its op.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from normclock import NormClock
from world import (
    WORLD_CONTENTS,
    WORLD_USERS,
    World,
    build_worlds,
    populate,
)

from repro.core.albums import geo_album, rated_album, social_album
from repro.core.mashup import MashupView, run_mashup
from repro.platform.gallery import Platform
from repro.platform.models import ContentItem
from repro.rdf.namespace import REV, TL_USER
from repro.rdf.terms import Literal, URIRef
from repro.sparql.evaluator import Evaluator
from repro.store import QuadStore
from repro.workloads.generator import WorkloadConfig, generate_workload

Record = Callable[[str, float, float], None]

ALBUMS = {"geo": geo_album, "social": social_album, "rated": rated_album}
ALBUM_KINDS = ("geo", "social", "rated")


class CheckFailed(Exception):
    """An operation's result differs from the expected one."""


def schedule_digest(schedule: Sequence[tuple]) -> str:
    text = "\n".join(repr(op) for op in schedule).encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:16]


def _cycle(rng: random.Random, items: Sequence) -> Iterator:
    """``items`` forever, each pass in a fresh seeded order, so every
    argument appears equally often in any run of a pass or more."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _lexical(term) -> str:
    return term.lexical if isinstance(term, Literal) else str(term)


class Workload:
    """One workload: schedule, world, operations and final checks."""

    name = ""
    #: Schedule length; a run that reaches it stops early.
    CAP = 0
    #: Interval kinds behind op_p50/op_p90, read_p50/read_p90, and
    #: those summed into an op's busy time for throughput.
    OP_KINDS: Tuple[str, ...] = ()
    READ_KINDS: Tuple[str, ...] = ()
    BUSY_KINDS: Tuple[str, ...] = ()
    #: Per-kind figures printed as diagnostics: name -> (kind, quantile).
    NAMED: Dict[str, Tuple[str, float]] = {}
    #: The traced run traces the odd blocks of the first
    #: 2 * TRACED_BLOCKS blocks of BLOCK ops, untraced blocks between.
    BLOCK = 1
    TRACED_BLOCKS = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.schedule = self.build_schedule(seed)
        self.world: Optional[World] = None

    @staticmethod
    def build_schedule(seed: int) -> List[tuple]:
        raise NotImplementedError

    # -- world ----------------------------------------------------------
    def new_store(self, build: int) -> QuadStore:
        return QuadStore(name=f"{self.name}-{build}")

    def drop_store(self, store: QuadStore) -> None:
        store.close()

    def setup(self, clock: NormClock) -> Tuple[float, float]:
        """Build the world; returns normalized and raw setup seconds."""
        self.world, seconds, raw = build_worlds(
            clock, self.new_store, self.drop_store
        )
        return seconds, raw

    @property
    def store(self) -> QuadStore:
        assert self.world is not None
        return self.world.store

    def warm_up(self) -> None:
        """Untimed work before the first timed op."""

    def execute(self, index: int, op: tuple, record: Record) -> None:
        raise NotImplementedError

    def finish(self) -> List[Tuple[int, str]]:
        """Final checks after the last op; returns failures."""
        return []

    def close(self) -> None:
        if self.world is not None:
            self.drop_store(self.world.store)
            self.world = None


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

_READBACK = """\
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
SELECT ?link WHERE {{ <{resource}> comm:image-data ?link }}
"""


class Ingest(Workload):
    name = "ingest"
    CAP = 400
    OP_KINDS = ("fresh",)
    READ_KINDS = ("query",)
    BUSY_KINDS = ("fresh",)
    NAMED = {
        "freshness_p50_ms": ("fresh", 0.5),
        "freshness_p90_ms": ("fresh", 0.9),
    }
    BLOCK = 1
    TRACED_BLOCKS = 6
    #: Offsets the upload generator's seed from the world's.
    UPLOAD_SEED = 1_000_000
    #: The uploads' timeline starts a week after the world's, which
    #: spans at most 240 x 600 s. Every position fix an upload reports
    #: is then later than the world's captures by more than the context
    #: platform's one-hour fix age, so no world content's location or
    #: buddies change when an upload arrives or is deleted.
    UPLOAD_START = WorkloadConfig.start_timestamp + 7 * 86_400

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.uploaded: List[Tuple[int, ContentItem]] = []

    @staticmethod
    def build_schedule(seed: int) -> List[tuple]:
        arrivals = generate_workload(WorkloadConfig(
            n_users=WORLD_USERS,
            n_contents=Ingest.CAP,
            seed=Ingest.UPLOAD_SEED + seed,
            start_timestamp=Ingest.UPLOAD_START,
        ))
        return [("upload", capture) for capture in arrivals.captures]

    def execute(self, index: int, op: tuple, record: Record) -> None:
        platform = self.world.platform
        if self.uploaded:
            # Untimed: keep the world at 240 contents plus this upload.
            # With a growing corpus every upload costs more than the last,
            # and the figures would depend on how many fit in the run.
            platform.delete_content(self.uploaded[-1][1].pid)
        began = time.perf_counter()
        item = platform.upload(op[1])
        self.uploaded.append((index, item))
        evaluator = platform.evaluator()
        asked = time.perf_counter()
        result = evaluator.evaluate(_READBACK.format(resource=item.resource))
        ended = time.perf_counter()
        record("fresh", began, ended)
        record("query", asked, ended)
        links = [_lexical(row["link"]) for row in result]
        if links != [item.media_url]:
            raise CheckFailed(f"read-back of pid {item.pid}: {links!r}")

    def finish(self) -> List[Tuple[int, str]]:
        """The store must equal a fresh store synced from a from-scratch
        ``semanticize()`` of the same world and the same uploads and
        deletions."""
        oracle = Platform()
        populate(oracle, self.world.population)
        previous = None
        for index, _ in self.uploaded:
            if previous is not None:
                oracle.delete_content(previous.pid)
            previous = oracle.upload(self.schedule[index][1])
        expected = QuadStore(name="ingest-oracle")
        expected.sync_dataset(oracle.triple_store())
        differing = set(expected.quads()) ^ set(self.store.quads())
        expected.close()
        if not differing:
            return []
        terms = {term for quad in differing for term in (quad[0], quad[2])}
        failures = [
            (index, "store differs from a from-scratch semanticize()")
            for index, item in self.uploaded if item.resource in terms
        ]
        return failures or [(-1, f"{len(differing)} quad(s) differ "
                                 f"from a from-scratch semanticize()")]


# ---------------------------------------------------------------------------
# browse
# ---------------------------------------------------------------------------

def _mashup_fingerprint(view: MashupView) -> tuple:
    return tuple(
        (kind, tuple((s.label, str(s.resource), s.description)
                     for s in sections))
        for kind, sections in sorted(view.sections.items())
    )


class Browse(Workload):
    name = "browse"
    CAP = 50_000
    OP_KINDS = ("album", "mashup", "suggest", "page")
    #: Albums only: pooled with mashups, the median would sit in the
    #: albums' upper tail, where run-to-run noise is widest.
    READ_KINDS = ("album",)
    BUSY_KINDS = OP_KINDS
    NAMED = {
        "mashup_p50_ms": ("mashup", 0.5),
        "suggest_p50_ms": ("suggest", 0.5),
        "page_p50_ms": ("page", 0.5),
    }
    #: One block holds these kinds in a seeded order, so every run has
    #: the same mix and each percentile sits inside one kind's cluster.
    #: The counts are the read kinds of the program's own "read-heavy"
    #: traffic mix (``repro.workloads.loadgen.MIXES``): album 20,
    #: mashup 12, search 36 and browse 24, divided by 4.
    BLOCK_KINDS = ("album",) * 5 + ("mashup",) * 3 + ("suggest",) * 9 \
        + ("page",) * 6
    BLOCK = len(BLOCK_KINDS)
    TRACED_BLOCKS = 10
    MONUMENTS = (
        "Mole Antonelliana", "Palazzo Madama", "Piazza Castello",
        "Museo Egizio",
    )
    PREFIXES = ("mol", "tor", "mus", "pal", "par", "egi", "ant", "gran")
    MASHUP_CONTENTS = 16
    PAGES = 24
    PAGE_SIZE = 10

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.albums = {
            (kind, monument): ALBUMS[kind](monument)
            for kind in ALBUM_KINDS for monument in self.MONUMENTS
        }
        self.expected: Dict[tuple, tuple] = {}

    @staticmethod
    def build_schedule(seed: int) -> List[tuple]:
        rng = random.Random(f"browse:{seed}")
        pool = rng.sample(range(WORLD_CONTENTS), Browse.MASHUP_CONTENTS)
        args = {
            "album": _cycle(rng, [(kind, monument)
                                  for kind in ALBUM_KINDS
                                  for monument in Browse.MONUMENTS]),
            "mashup": _cycle(rng, [(index,) for index in pool]),
            "suggest": _cycle(rng, [(p,) for p in Browse.PREFIXES]),
            "page": _cycle(rng, [(page,) for page in
                                 range(1, Browse.PAGES + 1)]),
        }
        schedule: List[tuple] = []
        while len(schedule) < Browse.CAP:
            kinds = list(Browse.BLOCK_KINDS)
            rng.shuffle(kinds)
            schedule.extend((kind,) + next(args[kind]) for kind in kinds)
        return schedule

    def _request(self, op: tuple) -> Tuple[tuple, float, float]:
        """Run one request; returns its result fingerprint and times."""
        world = self.world
        kind = op[0]
        if kind == "album":
            album = self.albums[op[1:]]
            began = time.perf_counter()
            links = album.links(Evaluator(world.store))
            ended = time.perf_counter()
            return tuple(links), began, ended
        if kind == "mashup":
            pid = world.pids[op[1]]
            began = time.perf_counter()
            view = run_mashup(Evaluator(world.store), pid)
            ended = time.perf_counter()
            return _mashup_fingerprint(view), began, ended
        if kind == "suggest":
            began = time.perf_counter()
            found = world.search.suggest(op[1], limit=10)
            ended = time.perf_counter()
            return tuple((str(s.resource), s.label, s.score)
                         for s in found), began, ended
        began = time.perf_counter()
        page = world.web.browse(page=op[1], page_size=self.PAGE_SIZE)
        ended = time.perf_counter()
        return (tuple(i.pid for i in page.items), page.total), began, ended

    def warm_up(self) -> None:
        """One run of every distinct request; later runs must match."""
        for op in sorted(set(self.schedule), key=repr):
            self.expected[op] = self._request(op)[0]

    def execute(self, index: int, op: tuple, record: Record) -> None:
        result, began, ended = self._request(op)
        record(op[0], began, ended)
        if result != self.expected[op]:
            raise CheckFailed(f"{op!r} differs from its first run")


# ---------------------------------------------------------------------------
# review
# ---------------------------------------------------------------------------

REVIEWS = URIRef("http://repro.local/perfbench/reviews")
_REVIEW = "http://repro.local/perfbench/review/"

_ASK = """\
PREFIX rev: <http://purl.org/stuff/rev#>
ASK {{ GRAPH <{graph}> {{
  <{review}> rev:rating {rating} .
  <{review}> rev:reviewer <{reviewer}> .
  <{content}> rev:hasReview <{review}> .
}} }}
"""


class Review(Workload):
    name = "review"
    CAP = 50_000
    OP_KINDS = ("write",)
    READ_KINDS = ("read",)
    BUSY_KINDS = ("write", "read", "checkpoint")
    NAMED = {
        "write_p50_ms": ("write", 0.5),
        "write_p90_ms": ("write", 0.9),
        "album_p50_ms": ("album", 0.5),
        "read_p90_ms": ("read", 0.9),
    }
    READ_EVERY = 10
    CHECKPOINT_EVERY = 500
    BLOCK = READ_EVERY
    #: 60 blocks of 10 ops reach past the first checkpoint (op 499,
    #: in traced block 49).
    TRACED_BLOCKS = 30

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.albums = {kind: ALBUMS[kind]() for kind in ALBUM_KINDS}
        self.expected: Dict[str, tuple] = {}
        self.acknowledged: List[Tuple[int, List[tuple]]] = []

    @staticmethod
    def build_schedule(seed: int) -> List[tuple]:
        rng = random.Random(f"review:{seed}")
        schedule: List[tuple] = []
        for index in range(Review.CAP):
            read = None
            if index % Review.READ_EVERY == Review.READ_EVERY - 1:
                read = ALBUM_KINDS[(index // Review.READ_EVERY) % 3]
            checkpoint = (index % Review.CHECKPOINT_EVERY
                          == Review.CHECKPOINT_EVERY - 1)
            schedule.append((
                "review", rng.randrange(WORLD_CONTENTS),
                rng.randrange(WORLD_USERS), rng.randint(1, 5),
                read, checkpoint,
            ))
        return schedule

    def new_store(self, build: int) -> QuadStore:
        directory = self.workdir / f"review-store-{build}"
        shutil.rmtree(directory, ignore_errors=True)
        return QuadStore(directory, name="review", sync=True)

    def drop_store(self, store: QuadStore) -> None:
        store.close()
        shutil.rmtree(store.directory, ignore_errors=True)

    def warm_up(self) -> None:
        for kind, album in self.albums.items():
            self.expected[kind] = tuple(album.links(Evaluator(self.store)))

    def execute(self, index: int, op: tuple, record: Record) -> None:
        _, content_index, user_index, rating, read, checkpoint = op
        world = self.world
        store = world.store
        review = URIRef(f"{_REVIEW}{index}")
        content = world.platform.content(world.pids[content_index]).resource
        reviewer = TL_USER[world.population.usernames[user_index]]
        triples = [
            (review, REV.rating, Literal(rating)),
            (review, REV.reviewer, reviewer),
            (content, REV.hasReview, review),
        ]
        batch = store.batch()
        for triple in triples:
            batch.insert(triple, REVIEWS)
        began = time.perf_counter()
        _, effective = store.apply(batch.ops)
        ended = time.perf_counter()
        record("write", began, ended)
        if effective != len(triples):
            raise CheckFailed(f"review {index}: {effective} quad(s) "
                              f"committed, expected {len(triples)}")
        self.acknowledged.append((index, triples))
        if read is not None:
            ask = _ASK.format(graph=REVIEWS, review=review, rating=rating,
                              reviewer=reviewer, content=content)
            began = time.perf_counter()
            evaluator = Evaluator(store)
            seen = evaluator.evaluate(ask)
            album_began = time.perf_counter()
            links = tuple(self.albums[read].links(evaluator))
            ended = time.perf_counter()
            record("read", began, ended)
            record("album", album_began, ended)
            if seen is not True:
                raise CheckFailed(f"review {index} not readable")
            if links != self.expected[read]:
                raise CheckFailed(f"{read} album changed under review "
                                  f"writes")
        if checkpoint:
            began = time.perf_counter()
            store.checkpoint()
            record("checkpoint", began, time.perf_counter())

    def finish(self) -> List[Tuple[int, str]]:
        """Close and reopen the store: every acknowledged review must
        have survived."""
        store = self.store
        directory = store.directory
        store.close()
        reopened = QuadStore(directory, name="review-reopened")
        try:
            graph = reopened.graph(REVIEWS)
            return [
                (index, f"review {index} lost across reopen")
                for index, triples in self.acknowledged
                if not all(triple in graph for triple in triples)
            ]
        finally:
            reopened.close()


WORKLOADS = {cls.name: cls for cls in (Ingest, Browse, Review)}
