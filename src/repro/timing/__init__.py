"""Delay model and timing analysis for die-level routing solutions.

The delay of a connection (Eq. 1 of the paper) is the sum, over the edges
of its routed path, of the constant SLL delay ``d_SLL`` for SLL edges and
``d0 + d1 * r`` for TDM edges, where ``r`` is the TDM ratio of the net on
the directed TDM edge.  The objective is the *critical connection delay*:
the maximum over all connections.
"""

from repro.timing.delay import DelayModel
from repro.timing.analysis import ConnectionTiming, TimingAnalyzer, TimingReport

__all__ = [
    "ConnectionTiming",
    "DelayModel",
    "TimingAnalyzer",
    "TimingReport",
]
