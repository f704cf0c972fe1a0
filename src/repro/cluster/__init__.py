"""Machine model: processors, allocation and release.

The paper's setting is a distributed-memory machine without process
migration, so a suspended job must be restarted on *exactly* the set of
processors it was suspended on.  That forces the simulator to track
individual processor identities, not just a free count --
:class:`~repro.cluster.machine.Cluster` does exactly that, and gives
each fresh job the lowest-numbered free processors.
"""

from repro.cluster.machine import AllocationError, Cluster

__all__ = [
    "AllocationError",
    "Cluster",
]
