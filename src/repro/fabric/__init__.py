"""Multi-token fabric: thousands of token instances on one scheduler.

The paper's protocol manages a single token on a single ring.  This
package scales that out: :class:`TokenFabric` multiplexes N independent
protocol instances (one per string lock key) over one DES kernel via
batched scheduling.
"""

from repro.fabric.fabric import TokenFabric
from repro.fabric.scheduling import BatchScheduler, BatchTimer, SimView

__all__ = [
    "BatchScheduler",
    "BatchTimer",
    "SimView",
    "TokenFabric",
]
