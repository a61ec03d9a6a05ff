"""Schedules are a pure function of the workload and the seed."""

import pytest

import world
from workloads import WORKLOADS, schedule_digest

#: Never used while the benchmark was tuned.
HELD_OUT_SEED = 90817


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, HELD_OUT_SEED])
def test_same_seed_same_digest(name, seed):
    build = WORKLOADS[name].build_schedule
    assert schedule_digest(build(seed)) == schedule_digest(build(seed))


#: Digests as first printed; a change to any schedule shows here.
PINNED = {
    ("ingest", 1): "9cc1e288a42ac72c",
    ("ingest", HELD_OUT_SEED): "3b6a8d5dec27b1a3",
    ("browse", 1): "61a9707ad74633d3",
    ("browse", HELD_OUT_SEED): "e43f515edbb64381",
    ("review", 1): "b8cbe14d4be5469c",
    ("review", HELD_OUT_SEED): "8f21a1521a6ac842",
}


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_digest_is_pinned(name, seed):
    schedule = WORKLOADS[name].build_schedule(seed)
    assert schedule_digest(schedule) == PINNED[name, seed]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_differ(name):
    build = WORKLOADS[name].build_schedule
    assert schedule_digest(build(1)) != schedule_digest(build(2))


def test_browse_mix_is_the_same_in_every_block():
    browse = WORKLOADS["browse"]
    schedule = browse.build_schedule(HELD_OUT_SEED)
    expected = sorted(browse.BLOCK_KINDS)
    for start in range(0, 2000, browse.BLOCK):
        block = schedule[start:start + browse.BLOCK]
        assert sorted(op[0] for op in block) == expected


def test_uploads_come_after_the_world():
    # An upload's position fix must stay out of reach of every world
    # capture (the context platform uses fixes up to an hour old), so
    # that uploads never change the world's contexts.
    last = max(c.timestamp for c in world.population().captures)
    ingest = WORKLOADS["ingest"]
    for seed in (1, HELD_OUT_SEED):
        first = min(op[1].timestamp for op in ingest.build_schedule(seed))
        assert first > last + 3600


def test_review_reads_and_checkpoints_by_index():
    review = WORKLOADS["review"]
    schedule = review.build_schedule(HELD_OUT_SEED)
    reads = [i for i, op in enumerate(schedule[:1000]) if op[4]]
    checkpoints = [i for i, op in enumerate(schedule[:1000]) if op[5]]
    assert reads == list(range(9, 1000, 10))
    assert checkpoints == [499, 999]
