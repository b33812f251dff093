"""Gadget: the benchmark harness (the paper's primary contribution)."""

from .config import (
    ArrivalConfig,
    GadgetConfig,
    KeyConfig,
    SourceConfig,
    ValueConfig,
)
from .configfile import (
    ConfigError,
    example_config,
    gadget_from_config,
    load_config,
    parse_config,
)
from .driver import Driver, OperatorModel
from .evaluator import DEFAULT_STORES, EvaluationRow, PerformanceEvaluator, RunSpec
from .generator import (
    EventGenerator,
    InputReplayer,
    KeySampler,
    ValueSampler,
    ecdf_from_events,
)
from .harness import Gadget, generate_workload_trace
from .histogram import LatencyHistogram
from .mp_replay import (
    ConnectorSpec,
    ProcessShardedReplayer,
    WorkerCrashError,
    WorkerProcessError,
    store_content_digest,
)
from .operators import (
    ContinuousAggregationModel,
    ContinuousJoinModel,
    IntervalJoinModel,
    SessionWindowModel,
    WindowJoinModel,
    WindowModel,
    sliding_window_model,
    tumbling_window_model,
)
from .replayer import (
    ReplayResult,
    ReplayStopped,
    ShardedReplayer,
    ShardedReplayResult,
    TraceReplayer,
    shard_indices,
    shard_trace,
    synthesize_value,
)
from .state_machines import (
    AggregationMachine,
    BufferMachine,
    HolisticWindowMachine,
    IncrementalWindowMachine,
    MachineContext,
    MergeBufferMachine,
    StateMachine,
)
from .workloads import WORKLOAD_NAMES, WORKLOADS, WorkloadSpec, make_workload

__all__ = [
    "AggregationMachine",
    "ArrivalConfig",
    "BufferMachine",
    "ConfigError",
    "ContinuousAggregationModel",
    "ContinuousJoinModel",
    "DEFAULT_STORES",
    "example_config",
    "gadget_from_config",
    "load_config",
    "parse_config",
    "Driver",
    "EvaluationRow",
    "EventGenerator",
    "Gadget",
    "GadgetConfig",
    "HolisticWindowMachine",
    "IncrementalWindowMachine",
    "InputReplayer",
    "IntervalJoinModel",
    "KeyConfig",
    "KeySampler",
    "LatencyHistogram",
    "MachineContext",
    "MergeBufferMachine",
    "OperatorModel",
    "PerformanceEvaluator",
    "RunSpec",
    "ConnectorSpec",
    "ProcessShardedReplayer",
    "ReplayResult",
    "ReplayStopped",
    "SessionWindowModel",
    "ShardedReplayResult",
    "ShardedReplayer",
    "SourceConfig",
    "StateMachine",
    "TraceReplayer",
    "WorkerCrashError",
    "WorkerProcessError",
    "shard_indices",
    "shard_trace",
    "store_content_digest",
    "ValueConfig",
    "ValueSampler",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "WindowJoinModel",
    "WindowModel",
    "WorkloadSpec",
    "ecdf_from_events",
    "generate_workload_trace",
    "make_workload",
    "sliding_window_model",
    "synthesize_value",
    "tumbling_window_model",
]
