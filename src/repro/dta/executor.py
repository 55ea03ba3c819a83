"""Host CPU budget: the affinity-aware CPU count the benchmarks record
next to their timings.

The package itself runs every job in-process: window analysis goes one
window after another, the batch engine runs its request groups in
order, and the service runs its batches on dispatch threads.
"""

from __future__ import annotations

import os

__all__ = ["effective_cpus"]


def effective_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1
