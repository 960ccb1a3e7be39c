"""A catalogue of mutants: each oracle shown to bite.

Every row monkeypatches one library binding with a wrong variant (no source
file is edited) and names exactly what must catch it: the `verify` checks
that fail under the mutant, run in process over all four suites, and, where
no `verify` check can see the mutant, a fast oracle that must fail too.
"""

import dataclasses
import functools
import sys
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
    monkeypatch.setattr(batchnorm, "_update_running", update)


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
        self.bn_scope_key = f"bn{rank % (group.world_size // group.bn_group_size)}"
        self._scopes[collectives.SCOPE_BN_GROUP] = (self.bn_scope_key,
                                                    group._tables[self.bn_scope_key].ranks)
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

    def forward(x, gamma, beta, state, mode="train"):
        if mode == "eval":
            real(x, gamma, beta, state, mode="train")
        return real(x, gamma, beta, state, mode=mode)
    monkeypatch.setattr(verify, "bn_forward_local", forward)


def variance_round_keeps_own_sums(monkeypatch):
    """The two-pass forward's second reduction, the one in `_train_forward` whose
    vector is not its packed sums, returns the rank's own squared deviations."""
    real = batchnorm.allreduce_sum

    def allreduce(handle, scope, v):
        caller = sys._getframe(2)  # past the forward's `reduce_vec` lambda
        if (caller.f_code is batchnorm._train_forward.__code__
                and v is not caller.f_locals["packed"]):
            return v.copy()
        return real(handle, scope, v)
    monkeypatch.setattr(batchnorm, "allreduce_sum", allreduce)


def bn_reductions_one_ulp_high(monkeypatch):
    real = batchnorm.allreduce_sum
    monkeypatch.setattr(batchnorm, "allreduce_sum",
                        lambda handle, scope, v: np.nextafter(real(handle, scope, v), np.inf))


def one_pass_count_one_short(monkeypatch):
    real = batchnorm.BNOperands.fit

    def fit(self, rows):
        real(self, rows)
        self.one_pass[-1] = rows.shape[0] - 1
    monkeypatch.setattr(batchnorm.BNOperands, "fit", fit)


def broadcast_non_root_one_ulp_high(monkeypatch):
    real = collectives._rendezvous

    def rendezvous(handle, scope_key, kind, root=None, payload=None):
        out = real(handle, scope_key, kind, root, payload)
        return np.nextafter(out, np.inf) if kind == "broadcast" and handle.rank != root else out
    monkeypatch.setattr(collectives, "_rendezvous", rendezvous)


def settle_reversed_on_every_other_run(monkeypatch):
    real_run, runs = collectives.DeviceGroup.run, [0]

    def run(self, fn):
        runs[0] += 1
        return real_run(self, fn)
    monkeypatch.setattr(collectives.DeviceGroup, "run", run)
    real_settle = collectives._settle

    def settle(table, scope_key):
        if runs[0] % 2:
            return real_settle(table, scope_key)
        return real_settle(SimpleNamespace(slots=table.slots, ranks=table.ranks[::-1]), scope_key)
    monkeypatch.setattr(collectives, "_settle", settle)


def milestone_only_in_its_own_epoch(monkeypatch):
    def lr_at(policy, epoch, i, ipe):
        own = tuple(m for m in policy.milestones if m[0] == epoch)
        return optim.lr_at(dataclasses.replace(policy, milestones=own), epoch, i, ipe)
    monkeypatch.setattr(verify, "lr_at", lr_at)


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
    ("variance_round_keeps_own_sums", variance_round_keeps_own_sums,
     {"bn.concat_equivalence", "bn.one_pass_agreement", "grad.sync_bn_fd"}, None),
    ("bn_reductions_one_ulp_high", bn_reductions_one_ulp_high,
     {"bn.single_group_bitwise"}, None),
    ("one_pass_count_one_short", one_pass_count_one_short, {"bn.one_pass_agreement"}, None),
    ("broadcast_non_root_one_ulp_high", broadcast_non_root_one_ulp_high,
     {"collectives.rank_symmetry"}, None),
    ("settle_reversed_on_every_other_run", settle_reversed_on_every_other_run,
     {"collectives.repeat_determinism", "collectives.sequential_order"}, None),
    ("reference_batch_32",
     lambda mp: mp.setattr(verify, "make_policy", functools.partial(optim.make_policy,
                                                                    base_batch=32)),
     {"schedule.base_case"}, None),
    ("normal_milestones_one_epoch_late",
     lambda mp: mp.setitem(optim.POLICIES, "normal", (((9, 0.1), (11, 0.1)), 11)),
     {"schedule.normal_breakpoints"}, None),
    ("long_last_multiplier_tenth",
     lambda mp: mp.setitem(optim.POLICIES, "long", (((11, 0.1), (14, 0.1), (17, 0.1)), 18)),
     {"schedule.long_breakpoints"}, None),
    ("milestone_only_in_its_own_epoch", milestone_only_in_its_own_epoch,
     {"schedule.normal_breakpoints", "schedule.long_breakpoints",
      "schedule.nonincreasing_after_warmup"}, None),
]


def failing_checks() -> set:
    return {c.name for suite in verify.SUITES for c in verify.run_suite(suite) if not c.passed}


@pytest.fixture(scope="module")
def unmutated_checks() -> list:
    """Every check of the unmutated library, from one pass over the four suites."""
    return [c for suite in verify.SUITES for c in verify.run_suite(suite)]


def test_the_unmutated_library_passes_every_check_and_oracle(unmutated_checks):
    assert {c.name for c in unmutated_checks if not c.passed} == set()
    assert all(oracle() for *_, oracle in MUTANTS if oracle is not None)


def test_every_check_fails_under_some_mutant(unmutated_checks):
    names = {c.name for c in unmutated_checks}
    assert len(names) == len(unmutated_checks) == 15
    assert set().union(*(caught_by for _, _, caught_by, _ in MUTANTS)) == names


@pytest.mark.parametrize("name, patch, caught_by, oracle", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_mutant_fails_exactly_what_the_table_names(name, patch, caught_by, oracle,
                                                        monkeypatch):
    patch(monkeypatch)
    assert failing_checks() == caught_by
    if oracle is not None:
        assert not oracle()
