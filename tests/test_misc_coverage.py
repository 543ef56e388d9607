"""Coverage for smaller behaviours not exercised elsewhere."""

import pytest

from repro.experiments import fig06_fairness_grid as fig06
from repro.experiments import fig14_queue_dynamics as fig14
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
            sim, "t", forward, reverse, variant="sack",
            on_data=lambda t, p: received.append(p.seq),
        )
        flow.start()
        sim.run(until=5.0)
        assert len(received) > 50
        assert flow.sink.acks_sent == flow.sink.packets_received == len(received)


class TestVariantRelativeBehaviour:
    def test_sack_beats_tahoe_under_burst_loss(self):
        """SACK repairs multi-loss windows without collapsing to cwnd=1;
        Tahoe restarts from scratch every time."""

        def run(variant):
            sim = Simulator()
            drop = {"pending": set(range(60, 75, 2))}

            def burst(packet, now):
                if packet.is_data and packet.seq in drop["pending"]:
                    drop["pending"].discard(packet.seq)
                    return True
                return False

            forward = LossyPath(sim, delay=0.05, loss_model=burst)
            reverse = LossyPath(sim, delay=0.05)
            received = []
            flow = TcpFlow(sim, "t", forward, reverse, variant=variant,
                           on_data=lambda t, p: received.append(p.seq))
            flow.start()
            sim.run(until=10.0)
            return len(received)

        assert run("sack") >= run("tahoe")


class TestExperimentValidation:
    def test_fig06_odd_flow_count_rejected(self):
        with pytest.raises(ValueError):
            fig06.run_cell(15e6, 3, "red", duration=1.0)

    def test_fig14_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            fig14.run_one("udp")

    def test_fig06_cell_lookup(self):
        result = fig06.Fig06Result(cells=[])
        with pytest.raises(KeyError):
            result.cell(15e6, 32, "red")
