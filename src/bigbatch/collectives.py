"""Simulated device group with deterministic collectives.

Each device is a worker thread. Collectives meet at a rendezvous: one slot
table per scope (`world`, `bn0`, `bn1`, ...), guarded by the group's
condition variable. Every rank deposits its call (kind, the scope's round
number, root, payload); the last to arrive checks that all calls agree,
combines the payloads strictly in ascending-rank order (or takes the
root's vector for a broadcast) and publishes the outcome to the scope. The
result is independent of scheduling and arrival order. Every collective,
a broadcast root's included, returns only once its whole scope has
arrived. A one-rank scope has no one to wait for: its collective returns
the rank's own vector, copied, without the rendezvous.

A mismatched call pattern (one rank doing a different collective, or
running ahead) is diagnosed with rank IDs, and a failing rank wakes every
blocked peer at once with its name. There is no clock: once every live
rank (one whose worker has not returned) waits in an unsettled round, each
raises a deadlock note naming every waiting rank, its call, the ranks it
waits for and which of those returned. A slow rank is waited for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .schema import check, integer

WORLD_SIZE = integer(gt=0, le=256)  # devices: twice MegDet's 128 GPUs
SCOPE_WORLD = "world"
SCOPE_BN_GROUP = "bn_group"
_SCOPE_NAMES = (SCOPE_WORLD, SCOPE_BN_GROUP)


class CollectiveError(RuntimeError):
    """Base class for collective failures."""


class CollectiveProtocolError(CollectiveError):
    """Mismatched collective calls, payload disagreement, invalid scope, or deadlock."""

    def __init__(self, msg, from_abort=False):
        super().__init__(msg)
        self.from_abort = from_abort


@dataclass
class _Table:
    """Rendezvous state of one scope: a slot per rank and the last outcome."""

    ranks: list[int]
    slots: dict[int, tuple] = field(default_factory=dict)  # rank -> (kind, round, root, payload)
    round: int = 0  # numbers the scope's calls: a rank deposits once a round
    result: np.ndarray | None = None
    error: str | None = None


class DeviceHandle:
    """A single simulated device: its rank and scope membership.

    A handle belongs to exactly one group and must only be used from its
    own worker thread. Collective calls block until the whole scope has
    participated.
    """

    def __init__(self, group: "DeviceGroup", rank: int):
        self.group = group
        self.rank = rank
        self.bn_scope_key = f"bn{rank // group.bn_group_size}"  # this device's sub-group scope
        tables = group._tables
        self._scopes = {SCOPE_WORLD: ("world", tables["world"].ranks),
                        SCOPE_BN_GROUP: (self.bn_scope_key, tables[self.bn_scope_key].ranks)}

    def _scope_info(self, scope: str) -> tuple[str, list[int]]:
        """(scope key, member ranks) of a scope name; callers must not mutate the list."""
        info = self._scopes.get(scope) if isinstance(scope, str) else None
        if info is None:
            raise CollectiveProtocolError(
                f"rank {self.rank}: unknown scope {scope!r}; expected one of {_SCOPE_NAMES}"
            )
        return info


class DeviceGroup:
    """A fixed set of simulated devices with ranks 0..n-1.

    Ranks are partitioned into contiguous normalization sub-groups of size
    `bn_group_size` ([0..g), [g..2g), ...); `bn_group_size` must divide
    `world_size`. Collectives on disjoint sub-groups never exchange data.
    """

    def __init__(self, world_size: int, bn_group_size: int | None = None):
        g = world_size if bn_group_size is None else bn_group_size
        check(ValueError, (WORLD_SIZE, world_size, "world_size"), (WORLD_SIZE, g, "bn_group_size"))
        if world_size % g != 0:
            raise ValueError(f"bn_group_size {g} must divide world_size {world_size}")
        self.world_size = world_size
        self.bn_group_size = g
        self._cond = threading.Condition()
        world = list(range(world_size))  # handles share the tables' rank lists
        self._tables = {"world": _Table(world)}
        self._tables.update((f"bn{r // g}", _Table(world[r:r + g]))
                            for r in range(0, world_size, g))
        self.handles = [DeviceHandle(self, r) for r in range(world_size)]
        self._failure: str | None = None  # abort note: the first failed rank, or the deadlock
        self._returned: set[int] = set()  # ranks whose worker has returned normally
        self._blocked = 0  # ranks waiting in an unsettled round, i.e. in a table's slots

    def run(self, fn: Callable[[DeviceHandle], Any]) -> list:
        """Run `fn(handle)` concurrently on every device; return per-rank results.

        A failed run raises one error, by the one rule that names a failed
        run: that of the first rank, in rank order, that was not merely
        aborted by a peer (an aborted rank raises a CollectiveProtocolError
        with `from_abort`). When every failed rank was aborted, as in a
        deadlock, the first one's error is raised.
        """
        results: list[Any] = [None] * self.world_size
        errors: list[BaseException | None] = [None] * self.world_size
        self._failure = None
        self._returned = set()
        self._blocked = 0
        for table in self._tables.values():  # each run numbers its calls from #0
            table.slots.clear()
            table.round = 0

        def runner(handle: DeviceHandle):
            try:
                results[handle.rank] = fn(handle)
                with self._cond:  # its blocked peers may now be all that is left
                    self._returned.add(handle.rank)
                    self._check_deadlock()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[handle.rank] = exc
                # wake every blocked peer; later collectives fail with the first note
                with self._cond:
                    if self._failure is None:
                        self._failure = (f"aborted: rank {handle.rank} failed with "
                                         f"{type(exc).__name__}: {exc}")
                    self._cond.notify_all()

        threads = [threading.Thread(target=runner, args=(h,), daemon=True, name=f"device-{h.rank}")
                   for h in self.handles]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        failed = sorted((e for e in errors if e is not None),  # aborted ranks last
                        key=lambda e: isinstance(e, CollectiveProtocolError) and e.from_abort)
        if failed:
            raise failed[0]
        return results

    def _check_deadlock(self) -> None:
        """Fail the group if every live rank is blocked; call under the lock."""
        if (self._failure is not None or not self._blocked
                or self._blocked + len(self._returned) < self.world_size):
            return
        waits = []
        for scope_key, table in self._tables.items():
            missing = [r for r in table.ranks if r not in table.slots]
            gone = [r for r in missing if r in self._returned]
            tail = (", which returned without joining it" if gone == missing
                    else f", of which {gone} returned" if gone else "")
            waits += [f"{_call_name(scope_key, *call[:3])}: rank {rank} waits for rank(s) "
                      f"{missing}{tail}" for rank, call in sorted(table.slots.items())]
        self._failure = "deadlock, every live rank is blocked: " + "; ".join(waits)
        self._cond.notify_all()


# -- collective operations -------------------------------------------------


def _as_vector(v, rank: int) -> np.ndarray:
    a = np.asarray(v)
    if a.ndim != 1 or a.dtype.kind != "f":
        a = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if a.ndim != 1:
        raise CollectiveProtocolError(f"rank {rank}: collective payload must be a 1-D vector")
    return a.copy()


def _call_name(scope_key: str, kind: str, seq: int, root: int | None) -> str:
    return f"{kind}[{scope_key}#{seq}]" + ("" if root is None else f" root {root}")


def _settle(table: _Table, scope_key: str) -> tuple[np.ndarray | None, str | None]:
    """Combine a full table into (result, error) for every rank of the scope."""
    calls = [table.slots[r] for r in table.ranks]
    kind, seq, root, ref = calls[0]
    if any(c[:3] != (kind, seq, root) for c in calls):
        detail = ", ".join(f"rank {r}: {_call_name(scope_key, *c[:3])}"
                           for r, c in zip(table.ranks, calls))
        return None, f"collective mismatch in scope {scope_key}: {detail}"
    if kind == "broadcast":
        return table.slots[root][3], None
    vectors = [c[3] for c in calls]
    bad = ", ".join(f"rank {r}: len {v.shape[0]} ({v.dtype})"
                    for r, v in zip(table.ranks, vectors)
                    if v.shape != ref.shape or v.dtype != ref.dtype)
    if bad:
        return None, (f"{_call_name(scope_key, kind, seq, None)}: payload mismatch with "
                      f"rank {table.ranks[0]}'s len {ref.shape[0]} ({ref.dtype}): {bad}")
    acc = ref
    for v in vectors[1:]:
        acc = acc + v
    return acc, None


def _rendezvous(handle: DeviceHandle, scope_key: str, kind: str,
                root: int | None = None, payload=None) -> np.ndarray:
    """Deposit this rank's call in its scope's table; return the round's result.

    The last rank to arrive settles the round and unblocks its scope. The
    others wait until the round counter moves or the group fails.
    """
    group = handle.group
    table = group._tables[scope_key]
    if len(table.ranks) == 1:  # no one to wait for; `_settle` keeps this fresh copy as is
        return payload
    with group._cond:
        my_round = table.round
        table.slots[handle.rank] = (kind, my_round, root, payload)
        if len(table.slots) == len(table.ranks):
            table.result, table.error = _settle(table, scope_key)
            table.slots.clear()
            table.round += 1
            group._blocked -= len(table.ranks) - 1  # everyone else in the round
            group._cond.notify_all()
        else:
            group._blocked += 1
            group._check_deadlock()
        while table.round == my_round:
            if group._failure is not None:
                raise CollectiveProtocolError(group._failure, from_abort=True)
            group._cond.wait()
        if table.error is not None:
            raise CollectiveProtocolError(table.error)
        return table.result.copy()


def allreduce_sum(handle: DeviceHandle, scope: str, v) -> np.ndarray:
    """Elementwise sum of every rank's vector; all ranks receive the result.

    Accumulation runs in ascending rank order regardless of arrival order,
    so the result is bitwise identical on every rank and across runs.
    """
    scope_key, _ = handle._scope_info(scope)
    return _rendezvous(handle, scope_key, "allreduce", payload=_as_vector(v, handle.rank))


def broadcast(handle: DeviceHandle, scope: str, root_rank: int, v=None) -> np.ndarray:
    """Copy root's vector to every rank in the scope, bitwise.

    Only the root supplies data; other ranks must pass `v=None`. Like every
    collective, the root too returns only once the whole scope has arrived.
    """
    scope_key, ranks = handle._scope_info(scope)
    if root_rank not in ranks:
        raise CollectiveProtocolError(
            f"rank {handle.rank}: broadcast root {root_rank} is outside scope "
            f"{scope_key} (ranks {ranks})"
        )
    if handle.rank == root_rank:
        if v is None:
            raise CollectiveProtocolError(f"rank {handle.rank}: broadcast root must supply data")
        v = _as_vector(v, handle.rank)
    elif v is not None:
        raise CollectiveProtocolError(
            f"rank {handle.rank}: only the broadcast root (rank {root_rank}) supplies data"
        )
    return _rendezvous(handle, scope_key, "broadcast", root=root_rank, payload=v)
