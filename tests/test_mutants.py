"""A catalogue of mutants: each oracle shown to bite.

Every row monkeypatches one library binding with a wrong variant (no source
file is edited) and names exactly what must catch it: the `verify` checks
that fail under the mutant, run in process over all four suites, and, where
no `verify` check can see the mutant, a fast oracle that must fail too.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from bigbatch import batchnorm, collectives, model, optim, verify


def settle_in_reverse_rank_order(monkeypatch):
    real = collectives._settle

    def settle(table, scope_key):
        return real(SimpleNamespace(slots=table.slots, ranks=table.ranks[::-1]), scope_key)
    monkeypatch.setattr(collectives, "_settle", settle)


def biased_running_variance(monkeypatch):
    def update(state, mu, var, count):
        rho = state.running_momentum
        state.running_mean[...] = (1.0 - rho) * state.running_mean + rho * mu
        state.running_var[...] = (1.0 - rho) * state.running_var + rho * var
    monkeypatch.setattr(batchnorm, "bn_update_running", update)


def lr_one_iteration_ahead(monkeypatch):
    real = verify.lr_at
    monkeypatch.setattr(verify, "lr_at", lambda p, e, i, ipe: real(p, e, i + 1, ipe))


def sync_bn_backward_on_local_sums(monkeypatch):
    def backward(handle, dy, cache, state):
        return batchnorm.bn_backward_local(dy, dataclasses.replace(cache, scope_key=None), state)
    monkeypatch.setattr(verify, "sync_bn_backward", backward)


def strided_bn_groups(monkeypatch):
    """Rank r joins BN group r % (N/g) instead of r // g."""
    real_group, real_handle = collectives.DeviceGroup.__init__, collectives.DeviceHandle.__init__

    def group_init(self, world_size, bn_group_size=None):
        real_group(self, world_size, bn_group_size)
        n, world = world_size // self.bn_group_size, self._tables["world"].ranks
        self._tables.update((f"bn{i}", collectives._Table(world[i::n])) for i in range(n))
        self.handles = [collectives.DeviceHandle(self, r) for r in world]

    def handle_init(self, group, rank):
        real_handle(self, group, rank)
        self.bn_group_index = rank % (group.world_size // group.bn_group_size)
        self.bn_scope_key = f"bn{self.bn_group_index}"
        self.bn_group_ranks = group._tables[self.bn_scope_key].ranks
        self._scopes[collectives.SCOPE_BN_GROUP] = (self.bn_scope_key, self.bn_group_ranks)
    monkeypatch.setattr(collectives.DeviceGroup, "__init__", group_init)
    monkeypatch.setattr(collectives.DeviceHandle, "__init__", handle_init)


def col2im_without_edge_zeroing(dcols, n, h, w):
    """`model._col2im` that adds the taps crossing an image edge."""
    c, p = dcols.shape[1] // 9, n * h * w
    taps = dcols.T.reshape(c, 3, 3, p)
    dst = np.zeros(c * p + 2 * (w + 1))
    for i in range(3):
        for j in range(3):
            dst[i * w + j:i * w + j + c * p] += taps[:, i, j].reshape(-1)
    return dst[w + 1:w + 1 + c * p].reshape(c, p).T


def eval_bn_blends_batch_stats(monkeypatch):
    real = verify.bn_forward_local

    def forward(x, state, mode="train"):
        if mode == "eval":
            real(x, state, mode="train")
        return real(x, state, mode=mode)
    monkeypatch.setattr(verify, "bn_forward_local", forward)


def l2_penalty_reads_weight_keys_only():
    params = {"a.w": np.array([1.0, 2.0]), "b": np.array([3.0])}
    return optim.l2_penalty(params, 2.0) == 5.0


# (name, patch(monkeypatch), verify checks that must fail, oracle that must fail or None)
MUTANTS = [
    ("settle_in_reverse_rank_order", settle_in_reverse_rank_order,
     {"collectives.sequential_order"}, None),
    ("biased_running_variance", biased_running_variance, {"bn.running_stats"}, None),
    ("lr_one_iteration_ahead", lr_one_iteration_ahead, {"schedule.warmup_endpoints"}, None),
    ("sync_bn_backward_on_local_sums", sync_bn_backward_on_local_sums,
     {"grad.sync_bn_fd"}, None),
    ("strided_bn_groups", strided_bn_groups, {"collectives.scope_isolation"}, None),
    ("col2im_without_edge_zeroing",
     lambda mp: mp.setattr(model, "_col2im", col2im_without_edge_zeroing),
     {"grad.model_fd"}, None),
    ("eval_bn_blends_batch_stats", eval_bn_blends_batch_stats, {"bn.running_stats"}, None),
    # the FD objective and the optimizer share `weight_keys`, so no FD check sees it
    ("weight_keys_returns_every_key",
     lambda mp: mp.setattr(optim, "weight_keys", lambda params: sorted(params)),
     set(), l2_penalty_reads_weight_keys_only),
]


def failing_checks() -> set:
    return {c.name for suite in verify.SUITES for c in verify.run_suite(suite) if not c.passed}


def test_the_unmutated_library_passes_every_check_and_oracle():
    assert failing_checks() == set()
    assert all(oracle() for *_, oracle in MUTANTS if oracle is not None)


@pytest.mark.parametrize("name, patch, caught_by, oracle", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_mutant_fails_exactly_what_the_table_names(name, patch, caught_by, oracle,
                                                        monkeypatch):
    patch(monkeypatch)
    assert failing_checks() == caught_by
    if oracle is not None:
        assert not oracle()
