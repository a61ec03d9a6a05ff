"""The TeamLife world every workload runs on, and its timed build.

A world is 240 contents uploaded by 8 users, semanticized and attached
to a quad-store, with the search index built and the planner statistics
collected. The population is the same on every run: album and mashup
costs differ by half between populations drawn from different seeds,
which would swamp every other difference between two runs. The
benchmark seed drives what happens to the world, not the world itself.

The build is timed one public call at a time, with a reference sample
after each call, because a single ~0.5 s call dominates it and the
machine's speed drifts within that call. ``setup_s`` is the sum, over
the build's calls, of each call's median over BUILDS builds: a slow
moment then costs only the call it hit, not its whole build.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from normclock import NormClock

from repro.platform.gallery import Platform
from repro.platform.search import SearchInterface
from repro.platform.web import WebInterface
from repro.store import QuadStore
from repro.workloads.generator import (
    Workload,
    WorkloadConfig,
    generate_workload,
)

WORLD_CONTENTS = 240
WORLD_USERS = 8
WORLD_SEED = 2012
BUILDS = 5
#: Uploads per timed interval of the population step.
UPLOAD_CHUNK = 40


@dataclass
class World:
    platform: Platform
    store: QuadStore
    search: SearchInterface
    web: WebInterface
    population: Workload
    pids: List[int]


def population() -> Workload:
    return generate_workload(WorkloadConfig(
        n_users=WORLD_USERS, n_contents=WORLD_CONTENTS, seed=WORLD_SEED,
    ))


def register(platform: Platform, people: Workload) -> None:
    for username in people.usernames:
        platform.register_user(username, people.full_names[username])
    for a, b in people.friendships:
        platform.add_friendship(a, b)


def upload_chunk(
    platform: Platform, people: Workload, start: int
) -> List[int]:
    pids = []
    for index in range(start, min(start + UPLOAD_CHUNK,
                                  len(people.captures))):
        item = platform.upload(people.captures[index])
        pids.append(item.pid)
        rating = people.ratings.get(index)
        if rating is not None:
            platform.rate(item.pid, rating)
    return pids


def populate(platform: Platform, people: Workload) -> List[int]:
    """All of ``people`` through the same public calls, untimed."""
    register(platform, people)
    pids: List[int] = []
    for start in range(0, len(people.captures), UPLOAD_CHUNK):
        pids.extend(upload_chunk(platform, people, start))
    return pids


def build_world(
    clock: NormClock, store: QuadStore
) -> Tuple[World, List[float], List[float]]:
    """Build one world on ``store``.

    Returns the world and the normalized and raw seconds of each public
    call of the build, in call order.
    """
    people = population()
    intervals: List[Tuple[float, float]] = []

    def timed(call: Callable, *args):
        began = time.perf_counter()
        result = call(*args)
        intervals.append((began, time.perf_counter()))
        clock.sample()
        return result

    clock.sample()
    platform = timed(Platform)
    timed(register, platform, people)
    pids: List[int] = []
    for start in range(0, len(people.captures), UPLOAD_CHUNK):
        pids.extend(timed(upload_chunk, platform, people, start))
    timed(platform.semanticize)
    timed(platform.attach_store, store)
    search = timed(
        lambda: SearchInterface(platform.union_graph(), platform.contents())
    )
    timed(store.statistics)
    world = World(
        platform, store, search, WebInterface(platform), people, pids
    )
    normalized = [clock.normalize(b, e) for b, e in intervals]
    raw = [e - b for b, e in intervals]
    return world, normalized, raw


def build_worlds(
    clock: NormClock,
    new_store: Callable[[int], QuadStore],
    drop_store: Callable[[QuadStore], None],
) -> Tuple[World, float, float]:
    """BUILDS identical builds; keeps the last world.

    Returns it with the normalized and raw build seconds: the sum of
    each call's median over the builds. ``new_store(n)`` makes the
    store of build ``n``; ``drop_store`` releases a discarded build's
    store.
    """
    normalized: List[List[float]] = []
    raw: List[List[float]] = []
    world: Optional[World] = None
    for build in range(BUILDS):
        if world is not None:
            drop_store(world.store)
            world = None
            gc.collect()
        store = new_store(build)
        world, seconds, wall = build_world(clock, store)
        normalized.append(seconds)
        raw.append(wall)
    assert world is not None
    gc.collect()
    return world, _sum_of_medians(normalized), _sum_of_medians(raw)


def _sum_of_medians(builds: List[List[float]]) -> float:
    return sum(statistics.median(call) for call in zip(*builds))
