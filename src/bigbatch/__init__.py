"""Simulated multi-device training with synchronized batch normalization.

Everything runs in one process: devices are threads, collectives meet at
a shared rendezvous table per scope, and every reduction has a fixed order
so that runs are reproducible down to the last bit.
"""

from .tensor import (
    NonFiniteError,
    Tensor,
    TensorError,
    sequential_sum_rows,
)
from .collectives import (
    SCOPE_BN_GROUP,
    SCOPE_WORLD,
    CollectiveError,
    CollectiveProtocolError,
    DeviceGroup,
    DeviceHandle,
    allreduce_sum,
    broadcast,
)
from .batchnorm import (
    BatchNormError,
    BNForwardCache,
    BNLayerState,
    bn_backward_local,
    bn_forward_local,
    bn_update_running,
    sync_bn_backward,
    sync_bn_forward,
)
from .model import (
    LayerSpec,
    ModelError,
    ModelSpec,
    accuracy,
    backward,
    forward,
    init_buffers,
    init_params,
    plan,
)
from .optim import (
    BASE_BATCH,
    BASE_LR,
    DivergenceError,
    LRPolicy,
    ScheduleError,
    SGDState,
    default_warmup_iters,
    l2_penalty,
    lr_at,
    make_policy,
    scaled_target_lr,
    sgd_step,
    weight_keys,
)
from .analysis import (
    AnalysisError,
    EquivalenceReport,
    RatioCell,
    SamplerSpec,
    VarianceReport,
    VarianceSpec,
    estimate_grad_variance,
    normal_pair_sampler,
    posneg_ratio_study,
    scalar_linear_grad,
    variance_equivalence_ratio,
)
from .data import (
    DataError,
    Dataset,
    DatasetSpec,
    class_means,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .trainer import (
    ConfigError,
    ExperimentConfig,
    MetricsRow,
    TrainerError,
    TrainResult,
    check_replica_sync,
    run_training,
    write_outputs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tensor
    "Tensor", "TensorError", "NonFiniteError", "sequential_sum_rows",
    # collectives
    "DeviceGroup", "DeviceHandle", "allreduce_sum", "broadcast",
    "SCOPE_WORLD", "SCOPE_BN_GROUP",
    "CollectiveError", "CollectiveProtocolError",
    # batch norm
    "BNLayerState", "BNForwardCache", "BatchNormError",
    "bn_forward_local", "bn_backward_local", "bn_update_running",
    "sync_bn_forward", "sync_bn_backward",
    # model
    "ModelSpec", "LayerSpec", "ModelError",
    "init_params", "init_buffers", "plan", "forward", "backward", "accuracy",
    # optimizer and schedule
    "SGDState", "LRPolicy", "ScheduleError", "DivergenceError",
    "sgd_step", "lr_at", "make_policy", "scaled_target_lr", "weight_keys", "l2_penalty",
    "default_warmup_iters", "BASE_BATCH", "BASE_LR",
    # analysis
    "VarianceReport", "VarianceSpec", "EquivalenceReport", "SamplerSpec", "RatioCell",
    "AnalysisError", "estimate_grad_variance", "variance_equivalence_ratio",
    "posneg_ratio_study", "scalar_linear_grad", "normal_pair_sampler",
    # data
    "DatasetSpec", "Dataset", "DataError", "generate_dataset", "save_dataset",
    "load_dataset", "class_means",
    # trainer
    "ExperimentConfig", "ConfigError", "TrainerError", "TrainResult",
    "MetricsRow", "check_replica_sync", "run_training", "write_outputs",
]
