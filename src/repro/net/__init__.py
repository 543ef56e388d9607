"""Packet-level network model.

This package replaces the ns-2 link/queue substrate the paper evaluates on:

* :mod:`~repro.net.packet` -- packets with flow ids, sequence numbers, and
  protocol payloads.
* :mod:`~repro.net.queues` -- DropTail and RED queue disciplines.
* :mod:`~repro.net.link` -- store-and-forward links that serialize packets at
  a configured bandwidth and add propagation delay.
* :mod:`~repro.net.path` -- :class:`~repro.net.path.LossyPath`, the ideal
  pipe with Bernoulli / periodic / scheduled loss models used by the
  protocol-mechanics figures, and (lossless) as the return path of the
  Dummynet-style pipe of the oscillation experiments, whose forward half
  is a :class:`~repro.net.link.Link` with a small DropTail buffer.
* :mod:`~repro.net.monitor` -- per-link and per-flow counters.
* :mod:`~repro.net.flow` -- the ``Port`` duck type and the ``Flow`` base
  that wires any protocol's sender/receiver pair over two ports.
* :mod:`~repro.net.topology` -- the dumbbell builder used by the fairness
  experiments.
"""

from repro.net.packet import Packet, PacketType
from repro.net.queues import DropTailQueue, Queue, REDQueue
from repro.net.link import Link
from repro.net.path import LossyPath
from repro.net.monitor import FlowMonitor, LinkMonitor
from repro.net.topology import Dumbbell, DumbbellConfig

__all__ = [
    "Packet",
    "PacketType",
    "Queue",
    "DropTailQueue",
    "REDQueue",
    "Link",
    "LossyPath",
    "LinkMonitor",
    "FlowMonitor",
    "Dumbbell",
    "DumbbellConfig",
]
