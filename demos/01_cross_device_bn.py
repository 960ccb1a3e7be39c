#!/usr/bin/env python3
"""Why batch norm needs to reach across devices.

Small per-device batches give each replica its own noisy channel
statistics. This script runs the same sharded batch through three paths:
per-device (local) normalization, cross-device normalization, and a
single-device pass over the concatenated batch, then compares statistics
and outputs. It also shows the quieter failure: with local BN the running
buffers drift apart between replicas even while the parameters stay
perfectly synchronized.
"""

import numpy as np

from bigbatch import (
    BNLayerState,
    DeviceGroup,
    bn_forward_local,
    sync_bn_forward,
)

WORLD = 4
PER_DEVICE = 4
CHANNELS = 3

rng = np.random.default_rng(7)
shards = [rng.standard_normal((PER_DEVICE, CHANNELS, 5, 5)) for _ in range(WORLD)]
gamma = rng.standard_normal(CHANNELS)
beta = rng.standard_normal(CHANNELS)


print(f"{WORLD} devices, {PER_DEVICE} images each, {CHANNELS} channels\n")

# --- 1. per-device statistics scatter --------------------------------------

print("per-device channel means (local BN, each replica on its own):")
local_mus = []
for r, x in enumerate(shards):
    _, cache = bn_forward_local(x, gamma, beta, BNLayerState.create(CHANNELS))
    local_mus.append(cache.mu)
    print(f"  device {r}: {np.array2string(cache.mu, precision=4)}")
print(f"  spread across devices: {np.ptp(np.stack(local_mus), axis=0)}")

# --- 2. cross-device statistics are shared and exact -----------------------

group = DeviceGroup(WORLD)


def sync_worker(handle):
    y, cache = sync_bn_forward(handle, shards[handle.rank], gamma, beta,
                               BNLayerState.create(CHANNELS))
    return y, cache.mu, cache.var


outs = group.run(sync_worker)
print("\ncross-device channel means (every replica sees the same numbers):")
for r, (_, mu, _) in enumerate(outs):
    print(f"  device {r}: {np.array2string(mu, precision=4)}")

big = np.concatenate(shards)
ref_y, ref_cache = bn_forward_local(big, gamma, beta, BNLayerState.create(CHANNELS))
print(f"\nreference: one device, batch of {big.shape[0]}")
print(f"  mean:     {np.array2string(ref_cache.mu, precision=4)}")

stacked = np.concatenate([o[0] for o in outs])
gap = np.max(np.abs(stacked - ref_y))
print(f"  max |sharded output - big batch output| = {gap:.3e}")

# --- 3. one reduction instead of two ---------------------------------------


def one_pass_worker(handle):
    y, _ = sync_bn_forward(handle, shards[handle.rank], gamma, beta,
                           BNLayerState.create(CHANNELS), one_pass=True)
    return y


one = np.concatenate(DeviceGroup(WORLD).run(one_pass_worker))
print("\nsingle-reduction variant (sum and sum of squares in one exchange):")
print(f"  max difference vs two-pass = {np.max(np.abs(one - stacked)):.3e}")

# --- 4. the quiet failure mode ---------------------------------------------
# The running buffers are updated from whatever statistics the forward pass
# used. Local BN therefore writes different numbers on every device, and
# evaluation results start depending on which replica you ask.

print("\nrunning_mean after one training forward:")


def buffer_worker(mode):
    def worker(handle):
        state = BNLayerState.create(CHANNELS)
        if mode == "local":
            bn_forward_local(shards[handle.rank], gamma, beta, state)
        else:
            sync_bn_forward(handle, shards[handle.rank], gamma, beta, state)
        return state.running_mean

    return DeviceGroup(WORLD).run(worker)


for mode in ("local", "cross"):
    buffers = buffer_worker(mode)
    spread = np.max(np.ptp(np.stack(buffers), axis=0))
    print(f"  {mode:5s}: max spread across replicas = {spread:.3e}"
          + ("   <- replicas disagree" if spread > 0 else "   (identical)"))
