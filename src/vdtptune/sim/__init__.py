from .kernels import NUMBA_ENABLED
from .scenario import Scenario, human_expert_config, load_scenario, preset, preset_names
from .transfer import (
    SessionResult,
    TransferOutcome,
    effective_throughput,
    n_chunks,
    simulate_replication,
    simulate_session_events,
    write_event_trace,
)

__all__ = [
    "NUMBA_ENABLED",
    "Scenario",
    "SessionResult",
    "TransferOutcome",
    "effective_throughput",
    "human_expert_config",
    "load_scenario",
    "n_chunks",
    "preset",
    "preset_names",
    "simulate_replication",
    "simulate_session_events",
    "write_event_trace",
]
