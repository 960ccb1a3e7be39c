import sys
import threading
import time

import numpy as np
import pytest

from bigbatch.collectives import (
    SCOPE_BN_GROUP,
    SCOPE_WORLD,
    WORLD_SIZE,
    CollectiveError,
    CollectiveProtocolError,
    DeviceGroup,
    allreduce_sum,
    broadcast,
)

from helpers import loop_sequential_sum, rank_outcomes


def run_bounded(group, fn, seconds=10.0):
    """`rank_outcomes(group, fn)`, failing instead of hanging."""
    out = []
    t = threading.Thread(target=lambda: out.append(rank_outcomes(group, fn)), daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "the group run did not finish"
    return out[0]


def test_world_size_rule_admits_twice_megdets_128():
    # checked on the rule alone: no test starts a world above 16 threads
    assert WORLD_SIZE(256, "world_size") is None
    assert WORLD_SIZE(257, "world_size") == "world_size must be an integer > 0 and <= 256, got 257"


def test_handles_share_the_tables_rank_lists():
    # each handle used to build its own list of every world rank: memory in world_size**2
    g = DeviceGroup(8, bn_group_size=4)
    for h in g.handles:
        assert h._scope_info(SCOPE_WORLD)[1] is g._tables["world"].ranks
        assert h._scope_info(SCOPE_BN_GROUP)[1] is g._tables[h.bn_scope_key].ranks


def test_group_validation():
    with pytest.raises(ValueError):
        DeviceGroup(0)
    with pytest.raises(ValueError):
        DeviceGroup(4, bn_group_size=3)
    with pytest.raises(ValueError):
        DeviceGroup(4, bn_group_size=8)


def test_bn_group_partition():
    g = DeviceGroup(6, bn_group_size=2)
    assert g.handles[0]._scope_info(SCOPE_BN_GROUP)[1] == [0, 1]
    assert g.handles[3]._scope_info(SCOPE_BN_GROUP)[1] == [2, 3]
    assert g.handles[5].bn_scope_key == "bn2"


def test_run_returns_per_rank_results():
    g = DeviceGroup(4)
    out = g.run(lambda h: h.rank * 10)
    assert out == [0, 10, 20, 30]


def test_allreduce_matches_sequential_reference():
    world = 5
    rng = np.random.default_rng(11)
    contribs = [rng.normal(size=7) for _ in range(world)]
    g = DeviceGroup(world)
    out = g.run(lambda h: allreduce_sum(h, SCOPE_WORLD, contribs[h.rank]))
    want = loop_sequential_sum(contribs)  # ascending-rank left-to-right fold
    for r in range(world):
        assert np.array_equal(out[r], want)  # bitwise, on every rank


def test_allreduce_bitwise_identical_across_runs():
    rng = np.random.default_rng(12)
    contribs = [rng.normal(size=16) for _ in range(8)]

    def once():
        g = DeviceGroup(8)
        return g.run(lambda h: allreduce_sum(h, SCOPE_WORLD, contribs[h.rank]))

    a, b = once(), once()
    for r in range(8):
        assert np.array_equal(a[r], b[r])
        assert np.array_equal(a[r], a[0])


def test_allreduce_world_of_one_returns_copy():
    g = DeviceGroup(1)
    src = np.array([1.5, -0.5])
    (out,) = g.run(lambda h: allreduce_sum(h, SCOPE_WORLD, src))
    out[0] = 99.0
    assert src[0] == 1.5


def test_allreduce_preserves_negative_zero():
    g = DeviceGroup(1)
    (out,) = g.run(lambda h: allreduce_sum(h, SCOPE_WORLD, np.array([-0.0])))
    assert np.signbit(out[0])


def test_one_rank_scopes_return_their_own_vector():
    # sub-groups of one: each rank's BN-scope allreduce is a copy of its own
    # vector, bits and -0.0 kept; the world scope still sums every rank's
    src = [np.array([float(r), -0.0]) for r in range(4)]
    g = DeviceGroup(4, bn_group_size=1)

    def fn(h):
        own = allreduce_sum(h, SCOPE_BN_GROUP, src[h.rank])
        return own, allreduce_sum(h, SCOPE_WORLD, src[h.rank])

    for r, (own, whole) in enumerate(g.run(fn)):
        assert own is not src[r] and own.tobytes() == src[r].tobytes()
        assert whole.tolist() == [6.0, 0.0]


def test_broadcast_world_of_one_returns_copy():
    g = DeviceGroup(1)
    src = np.array([2.5, -0.0])
    (out,) = g.run(lambda h: broadcast(h, SCOPE_WORLD, 0, src))
    assert out is not src and out.tobytes() == src.tobytes()
    out[0] = 99.0
    assert src[0] == 2.5


@pytest.mark.parametrize("call, match", [
    (lambda h: allreduce_sum(h, SCOPE_BN_GROUP, np.ones((2, 2))), "1-D vector"),
    (lambda h: broadcast(h, SCOPE_BN_GROUP, 1 - h.rank, np.ones(2)), "outside scope"),
    (lambda h: broadcast(h, SCOPE_BN_GROUP, h.rank, None), "must supply data"),
    (lambda h: allreduce_sum(h, "everyone", [1.0]), "unknown scope"),
])
def test_one_rank_scope_keeps_its_checks(call, match):
    with pytest.raises(CollectiveProtocolError, match=match):
        DeviceGroup(2, bn_group_size=1).run(call)


def test_scope_isolation():
    # Two sub-groups of two; each group's total must only include its own
    # members, and the world total includes everyone.
    vals = [1.0, 2.0, 4.0, 8.0]
    g = DeviceGroup(4, bn_group_size=2)

    def fn(h):
        sub = allreduce_sum(h, SCOPE_BN_GROUP, [vals[h.rank]])
        whole = allreduce_sum(h, SCOPE_WORLD, [vals[h.rank]])
        return float(sub[0]), float(whole[0])

    out = g.run(fn)
    assert [s for s, _ in out] == [3.0, 3.0, 12.0, 12.0]
    assert [w for _, w in out] == [15.0] * 4


def test_interleaved_scopes_keep_sequence_numbers_apart():
    g = DeviceGroup(4, bn_group_size=2)

    def fn(h):
        a = allreduce_sum(h, SCOPE_WORLD, [1.0])
        b = allreduce_sum(h, SCOPE_BN_GROUP, [1.0])
        c = allreduce_sum(h, SCOPE_WORLD, [2.0])
        return float(a[0]), float(b[0]), float(c[0])

    out = g.run(fn)
    assert out == [(4.0, 2.0, 8.0)] * 4


def test_broadcast_delivers_roots_vector():
    g = DeviceGroup(3)
    payload = np.array([3.25, -1.0, 0.5])

    def fn(h):
        v = payload if h.rank == 1 else None
        return broadcast(h, SCOPE_WORLD, 1, v)

    out = g.run(fn)
    for r in range(3):
        assert np.array_equal(out[r], payload)


def test_broadcast_root_must_supply_data():
    g = DeviceGroup(2)

    def fn(h):
        return broadcast(h, SCOPE_WORLD, 0, None)

    with pytest.raises(CollectiveError):
        g.run(fn)


def test_group_reused_after_failed_run():
    # The root fails before its call is counted, its peer after: the next
    # run must start every rank's call count from zero again.
    g = DeviceGroup(2)
    with pytest.raises(CollectiveError):
        g.run(lambda h: broadcast(h, SCOPE_WORLD, 0, None))
    outs = g.run(lambda h: allreduce_sum(h, SCOPE_WORLD, np.array([h.rank + 1.0])))
    assert [o.tolist() for o in outs] == [[3.0], [3.0]]


def test_broadcast_non_root_must_not_supply_data():
    g = DeviceGroup(2)

    def fn(h):
        return broadcast(h, SCOPE_WORLD, 0, np.ones(2))

    with pytest.raises(CollectiveProtocolError):
        g.run(fn)


def test_broadcast_root_outside_scope():
    g = DeviceGroup(4, bn_group_size=2)

    def fn(h):
        # Rank 3 is not in bn group 0, so ranks 0/1 naming it must fail fast.
        if h.rank in (0, 1):
            return broadcast(h, SCOPE_BN_GROUP, 3, None)
        return None

    with pytest.raises(CollectiveProtocolError, match="outside scope"):
        g.run(fn)


def test_unknown_scope_rejected():
    g = DeviceGroup(2)

    def fn(h):
        if h.rank == 0:
            allreduce_sum(h, "everyone", [1.0])
        return None

    with pytest.raises(CollectiveProtocolError, match="unknown scope"):
        g.run(fn)


def test_payload_length_mismatch_names_ranks():
    g = DeviceGroup(3)

    def fn(h):
        return allreduce_sum(h, SCOPE_WORLD, np.ones(2 if h.rank == 1 else 3))

    with pytest.raises(CollectiveProtocolError, match="payload mismatch"):
        g.run(fn)


def test_slow_rank_is_waited_for():
    # rank 2 is busy, not blocked, so its peers wait however long it takes
    g = DeviceGroup(3)

    def fn(h):
        if h.rank == 2:
            time.sleep(0.5)
        return allreduce_sum(h, SCOPE_WORLD, [1.0])

    assert [o.tolist() for o in run_bounded(g, fn)] == [[3.0]] * 3


def test_cross_scope_deadlock_is_named_at_once():
    # rank 1 waits in bn0 for rank 0, which waits in world for rank 1
    def fn(h):
        scope = SCOPE_BN_GROUP if h.rank == 1 else SCOPE_WORLD
        return allreduce_sum(h, scope, [1.0])

    t0 = time.perf_counter()
    out = run_bounded(DeviceGroup(4, bn_group_size=2), fn)
    assert time.perf_counter() - t0 < 0.1
    assert all(isinstance(o, CollectiveProtocolError) for o in out)
    msg = str(out[0])
    assert all(str(o) == msg for o in out)
    assert "allreduce[bn0#0]: rank 1 waits for rank(s) [0]" in msg
    for r in (0, 2, 3):
        assert f"allreduce[world#0]: rank {r} waits for rank(s) [1]" in msg


def test_a_later_run_numbers_its_calls_from_zero():
    # the rounds one run settles must not number the next run's calls
    g = DeviceGroup(4, bn_group_size=2)
    g.run(lambda h: [allreduce_sum(h, scope, [1.0])
                     for scope in (SCOPE_WORLD, SCOPE_BN_GROUP, SCOPE_WORLD)])

    def fn(h):
        scope = SCOPE_BN_GROUP if h.rank == 1 else SCOPE_WORLD
        return allreduce_sum(h, scope, [1.0])

    msg = str(run_bounded(g, fn)[0])
    assert "allreduce[bn0#0]: rank 1 waits for rank(s) [0]" in msg
    assert "allreduce[world#0]: rank 0 waits for rank(s) [1]" in msg


def test_returned_rank_is_named_once_every_live_rank_blocks():
    # rank 2 returns while rank 1 still computes: rank 0 keeps waiting,
    # since rank 1 could still arrive, until rank 1 blocks too
    g = DeviceGroup(3)
    stamps = {}

    def fn(h):
        if h.rank == 2:
            return None
        if h.rank == 1:
            time.sleep(0.3)
        stamps[h.rank] = time.perf_counter()
        scope = SCOPE_BN_GROUP if h.rank == 1 else SCOPE_WORLD
        try:
            return allreduce_sum(h, scope, [1.0])
        finally:
            stamps[h.rank, "raised"] = time.perf_counter()

    out = run_bounded(g, fn)
    assert out[2] is None
    assert stamps[0, "raised"] >= stamps[1]
    for r in (0, 1):
        assert isinstance(out[r], CollectiveProtocolError)
    msg = str(out[0])
    assert "allreduce[world#0]: rank 0 waits for rank(s) [1, 2], of which [2] returned" in msg
    assert "allreduce[bn0#0]: rank 1 waits for rank(s) [0, 2], of which [2] returned" in msg


def test_mismatched_collective_kinds_diagnosed():
    g = DeviceGroup(2)

    def fn(h):
        if h.rank == 0:
            return allreduce_sum(h, SCOPE_WORLD, [1.0])
        return broadcast(h, SCOPE_WORLD, 1, np.ones(1))

    with pytest.raises(CollectiveProtocolError, match="mismatch"):
        g.run(fn)


def test_worker_failure_aborts_peers_with_original_error():
    g = DeviceGroup(2)

    def fn(h):
        if h.rank == 0:
            raise ValueError("injected failure")
        return allreduce_sum(h, SCOPE_WORLD, [1.0])

    with pytest.raises((ValueError, CollectiveError)) as ei:
        g.run(fn)
    # The surfaced error must be traceable to the failure, not a generic hang.
    assert "injected" in str(ei.value) or "rank" in str(ei.value)


def test_worker_death_releases_blocked_peers_immediately():
    # the peer must be woken by the abort
    g = DeviceGroup(2)

    def fn(h):
        if h.rank == 0:
            raise ValueError("died outside any collective")
        return allreduce_sum(h, SCOPE_WORLD, [1.0])

    t0 = time.perf_counter()
    out = rank_outcomes(g, fn)
    assert time.perf_counter() - t0 < 5.0
    assert isinstance(out[0], ValueError)
    assert isinstance(out[1], CollectiveProtocolError)
    assert out[1].from_abort
    assert "rank 0" in str(out[1])


def test_local_broadcast_error_releases_peers_promptly():
    # the root fails its own argument check before the rendezvous; the
    # peer, already waiting, must learn of it at once
    g = DeviceGroup(2)

    def fn(h):
        if h.rank == 0:
            time.sleep(0.2)
        return broadcast(h, SCOPE_WORLD, 0, None)

    t0 = time.perf_counter()
    with pytest.raises(CollectiveProtocolError, match="must supply data"):
        g.run(fn)
    assert time.perf_counter() - t0 < 5.0


def test_returned_rank_releases_its_peers_promptly():
    # rank 1 returns without the collective rank 0 waits in; rank 0 must
    # learn of it at once, naming rank 1
    g = DeviceGroup(2)

    def fn(h):
        if h.rank == 1:
            return "done"
        return allreduce_sum(h, SCOPE_WORLD, [1.0])

    t0 = time.perf_counter()
    with pytest.raises(CollectiveProtocolError,
                       match=r"rank 0 waits for rank\(s\) \[1\], which returned"):
        g.run(fn)
    assert time.perf_counter() - t0 < 2.0


def test_returned_rank_outside_the_scope_is_not_waited_for():
    # rank 2 returns early, but bn0 holds ranks 0 and 1 only
    def fn(h):
        if h.rank >= 2:
            return None
        time.sleep(0.1)
        return allreduce_sum(h, SCOPE_BN_GROUP, [float(h.rank)])

    out = DeviceGroup(4, bn_group_size=2).run(fn)
    assert [None if o is None else o[0] for o in out] == [1.0, 1.0, None, None]


def test_scope_mismatch_releases_other_scopes_promptly():
    # ranks 0/1 disagree inside bn0 while ranks 2/3 wait for them in a
    # world allreduce that can never complete
    def fn(h):
        if h.rank in (0, 1):
            time.sleep(0.2)  # let ranks 2/3 block first
        if h.rank == 0:
            return allreduce_sum(h, SCOPE_BN_GROUP, [1.0])
        if h.rank == 1:
            return broadcast(h, SCOPE_BN_GROUP, 0)
        return allreduce_sum(h, SCOPE_WORLD, [1.0])

    t0 = time.perf_counter()
    with pytest.raises(CollectiveProtocolError, match="mismatch"):
        DeviceGroup(4, bn_group_size=2).run(fn)
    out = rank_outcomes(DeviceGroup(4, bn_group_size=2), fn)
    assert time.perf_counter() - t0 < 5.0
    for r in (2, 3):
        assert isinstance(out[r], CollectiveProtocolError) and out[r].from_abort
        assert "rank 0" in str(out[r]) or "rank 1" in str(out[r])


def test_rendezvous_stress_with_rapid_thread_switching():
    # more workers than cores and a tiny switch interval: a lost deposit,
    # a round settled twice or a result read from the wrong round would
    # hang or change a sum
    world, rounds = 8, 200
    contribs = np.random.default_rng(13).normal(size=(rounds, world, 3))
    g = DeviceGroup(world, bn_group_size=4)

    def fn(h):
        out = []
        for i in range(rounds):
            root = i % world
            out.append(allreduce_sum(h, SCOPE_BN_GROUP, contribs[i, h.rank]))
            out.append(allreduce_sum(h, SCOPE_WORLD, contribs[i, h.rank]))
            out.append(broadcast(h, SCOPE_WORLD, root,
                                 contribs[i, root] if h.rank == root else None))
        return out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = g.run(fn)
    finally:
        sys.setswitchinterval(old)
    for r in range(world):
        group = g.handles[r]._scope_info(SCOPE_BN_GROUP)[1]
        for i in range(rounds):
            sub, whole, bcast = out[r][3 * i:3 * i + 3]
            assert np.array_equal(sub, loop_sequential_sum([contribs[i, q] for q in group]))
            assert np.array_equal(whole, loop_sequential_sum(list(contribs[i])))
            assert np.array_equal(bcast, contribs[i, i % world])
