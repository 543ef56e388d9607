"""Packet-level SACK TCP, the paper's Sack1.

This is the competing-traffic baseline the paper evaluates TFRC against.
It is a window-based, ACK-clocked sender with:

* slow start / congestion avoidance,
* fast retransmit and SACK loss recovery (scoreboard plus pipe),
* RTO estimation with configurable clock granularity (the paper discusses
  500 ms FreeBSD clocks vs aggressive Solaris timers, section 4.3),
* a receiver that ACKs every segment with RFC 2018 SACK blocks.

The sequence space is packet-granular (one sequence number per packet), the
same modelling choice ns-2 makes.
"""

from repro.tcp.rto import RTOEstimator
from repro.tcp.sink import TCPSink
from repro.tcp.sender import TCPSender

__all__ = [
    "RTOEstimator",
    "TCPSink",
    "TCPSender",
]
