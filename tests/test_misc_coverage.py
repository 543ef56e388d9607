"""Coverage for smaller behaviours not exercised elsewhere."""

import pytest

from repro.experiments import fig06_fairness_grid as fig06
from repro.net.path import LossyPath, periodic_loss
from repro.sim.engine import Simulator
from repro.tcp.flow import TcpFlow


class TestAckPerSegmentFlow:
    def test_every_data_arrival_is_acked(self):
        """No delayed ACKs: the sink sends one ACK per data packet, so the
        window opens once per segment in slow start."""
        sim = Simulator()
        forward = LossyPath(sim, delay=0.05)
        reverse = LossyPath(sim, delay=0.05)
        received = []
        flow = TcpFlow(
            sim, "t", forward, reverse,
            on_data=lambda t, p: received.append(p.seq),
        )
        flow.start()
        sim.run(until=5.0)
        assert len(received) > 50
        assert flow.sink.acks_sent == flow.sink.packets_received == len(received)


class TestSackBurstRecovery:
    def test_a_burst_of_eight_losses_costs_one_reduction(self):
        """Every other segment of 60..74 is lost once: one fast retransmit
        and one pass over the holes repair all eight, with no timeout and
        no spurious retransmission."""
        sim = Simulator()
        pending = set(range(60, 75, 2))

        def burst(packet, now):
            if packet.is_data and packet.seq in pending:
                pending.discard(packet.seq)
                return True
            return False

        forward = LossyPath(sim, delay=0.05, loss_model=burst)
        reverse = LossyPath(sim, delay=0.05)
        flow = TcpFlow(sim, "t", forward, reverse)
        flow.start()
        sim.run(until=10.0)
        sender = flow.sender
        assert (sender.fast_retransmits, sender.timeouts) == (1, 0)
        assert sender.retransmissions == 8


class TestExperimentValidation:
    def test_fig06_cell_lookup(self):
        result = fig06.Fig06Result(cells=[])
        with pytest.raises(KeyError):
            result.cell(15e6, 32, "red")
