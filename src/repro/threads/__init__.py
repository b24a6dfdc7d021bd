"""User-level threads (ULTs) and scheduling primitives.

Virtual MPI ranks run as ULTs, exactly as in AMPI: blocking communication
suspends the ULT and the processing element's scheduler switches to
another ready rank.  The simulator implements ULTs as baton-passing OS
threads from a shared worker pool — only one ever runs at a time, handed
off explicitly — with all *reported* time coming from per-ULT simulated
clocks.
"""

from repro.threads.ult import UserLevelThread, UltState, UltKilled
from repro.threads.runqueue import RunQueue
from repro.threads.pool import (
    UltPool,
    consume_orphan_count,
    orphan_count,
    shared_pool,
)

__all__ = [
    "UserLevelThread",
    "UltState",
    "UltKilled",
    "RunQueue",
    "UltPool",
    "shared_pool",
    "orphan_count",
    "consume_orphan_count",
]
