"""The process migration environment (paper §2).

- :mod:`repro.migration.transport` — network links and channels with a
  latency + bandwidth cost model (the paper's 10 Mb/s and 100 Mb/s
  Ethernets are presets);
- :mod:`repro.migration.engine` — the migration mechanism itself:
  collect execution + memory state, transfer, restore, resume;
- :mod:`repro.migration.scheduler` — hosts, clusters, and the scheduler
  that "performs process management and sends a migration request to a
  process";
- :mod:`repro.migration.stats` — per-migration timing and byte
  accounting (Collect / Tx / Restore, as in Table 1).
"""

from repro.migration.transport import (
    Channel,
    ChannelClosedError,
    ChannelError,
    ChannelTimeoutError,
    ETHERNET_10M,
    ETHERNET_100M,
    Fault,
    FaultPlan,
    FaultyChannel,
    GIGABIT,
    Link,
    SocketChannel,
)
from repro.migration.checkpoint import (
    Checkpoint,
    checkpoint,
    checkpoint_to_file,
    restart,
    restart_from_file,
    run_with_checkpoints,
)
from repro.migration.stats import MigrationStats
from repro.migration.engine import (
    CollectError,
    DEFAULT_CHUNK_SIZE,
    MigrationAbortedError,
    MigrationEngine,
    MigrationError,
    RestoreError,
    collect_state,
    collect_state_chunks,
    restore_state,
    restore_state_stream,
)
from repro.migration.scheduler import Cluster, Host, Scheduler, SchedulerResult

__all__ = [
    "Channel",
    "SocketChannel",
    "ChannelError",
    "ChannelTimeoutError",
    "ChannelClosedError",
    "Fault",
    "FaultPlan",
    "FaultyChannel",
    "MigrationError",
    "CollectError",
    "RestoreError",
    "MigrationAbortedError",
    "Checkpoint",
    "checkpoint",
    "checkpoint_to_file",
    "restart",
    "restart_from_file",
    "run_with_checkpoints",
    "ETHERNET_10M",
    "ETHERNET_100M",
    "GIGABIT",
    "Link",
    "MigrationStats",
    "MigrationEngine",
    "DEFAULT_CHUNK_SIZE",
    "collect_state",
    "collect_state_chunks",
    "restore_state",
    "restore_state_stream",
    "Cluster",
    "Host",
    "Scheduler",
    "SchedulerResult",
]
