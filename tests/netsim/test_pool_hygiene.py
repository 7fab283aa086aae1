"""Pool hygiene: recycled packets never leak into observers.

The packet pool recycles TCP packets aggressively, so every observer
that outlives a delivery — captures, sniffers, fault duplicates, ICMP
error quotes — must hold its own copy.  These tests pin each of those
contracts; any of them regressing would silently corrupt recorded
traffic long after the run looked green.
"""

import pytest

from repro.netsim import Network, TCPApp, make_tcp_packet
from repro.netsim.faults import FaultPlan
from repro.netsim.packets import PacketPool, TCPFlags


class EchoServer(TCPApp):
    def on_data(self, conn, data):
        conn.send(b"echo:" + data)


class Client(TCPApp):
    def __init__(self):
        self.data = b""

    def on_data(self, conn, data):
        self.data += data


@pytest.fixture
def pair():
    net = Network()
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    net.add_router("r", "10.0.0.254")
    net.link("a", "r")
    net.link("r", "b")
    return net, a, b


def exchange(net, a, b, payload):
    b.stack.listen(80, EchoServer)
    app = Client()
    conn = a.stack.connect(b.ip, 80, app)
    net.run_until_idle()
    conn.send(payload)
    net.run_until_idle()
    return app.data


class TestCaptureImmunity:
    def test_capture_snapshots_survive_recycling(self, pair):
        """Capture entries are clones: later reuse of the recycled
        packet objects must not rewrite what was recorded."""
        net, a, b = pair
        assert exchange(net, a, b, b"FIRST-SECRET") == b"echo:FIRST-SECRET"
        before = [entry.describe() for entry in b.capture]
        payloads = [entry.packet.tcp.payload for entry in b.capture
                    if entry.packet.is_tcp]
        assert any(b"FIRST-SECRET" in p for p in payloads)
        # Drive plenty of fresh traffic through the (now warm) pool.
        for i in range(5):
            app = Client()
            conn = a.stack.connect(b.ip, 80, app)
            net.run_until_idle()
            conn.send(b"noise-%d" % i)
            net.run_until_idle()
        assert net.packet_pool.reused > 0
        assert [entry.describe() for entry in b.capture][:len(before)] \
            == before

    def test_recycled_payloads_never_resurface(self, pair):
        """A recycled packet's old payload must not appear in any later
        packet that did not legitimately carry it."""
        net, a, b = pair
        exchange(net, a, b, b"TOPSECRET")
        since = net.now
        app = Client()
        conn = a.stack.connect(b.ip, 80, app)
        net.run_until_idle()
        conn.send(b"benign")
        net.run_until_idle()
        assert net.packet_pool.reused > 0
        for entry in b.capture.filter(since=since, tcp_only=True):
            payload = entry.packet.tcp.payload
            if payload:
                assert b"TOPSECRET" not in payload


class TestFaultDuplicates:
    def test_duplicate_copies_are_independent(self):
        """Fault duplication clones: the copy delivered later must be
        byte-identical even though the original was recycled (and
        possibly reused) in between."""
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.0.0.2")
        net.link("a", "b")
        net.install_faults(FaultPlan.uniform_loss(0.0, duplicate=1.0))
        data = exchange(net, a, b, b"DUPLICATED-PAYLOAD")
        assert data.startswith(b"echo:DUPLICATED-PAYLOAD")
        rx_payloads = [entry.packet.tcp.payload
                       for entry in b.capture.filter(direction="rx",
                                                     tcp_only=True)
                       if entry.packet.tcp.payload]
        dups = [p for p in rx_payloads if p == b"DUPLICATED-PAYLOAD"]
        # duplicate=1.0 → the data segment arrived (at least) twice,
        # both copies intact.
        assert len(dups) >= 2


class TestSnifferRetention:
    def test_sniffed_packets_are_pinned(self, pair):
        """A sniffer keeps the live object, so the engine must not
        recycle it — retained packets stay intact forever after."""
        net, a, b = pair
        kept = []
        b.add_sniffer(lambda now, packet: kept.append(packet))
        exchange(net, a, b, b"SNIFFED-BYTES")
        snapshot = [p.describe() for p in kept]
        assert any(p.is_tcp and b"SNIFFED-BYTES" in p.tcp.payload
                   for p in kept)
        for i in range(5):
            app = Client()
            conn = a.stack.connect(b.ip, 80, app)
            net.run_until_idle()
            conn.send(b"churn-%d" % i)
            net.run_until_idle()
        assert [p.describe() for p in kept[:len(snapshot)]] == snapshot


class TestPoolUnit:
    def test_release_scrubs_payload_reference(self):
        pool = PacketPool()
        packet = pool.acquire_tcp("1.1.1.1", "2.2.2.2", 1234, 80,
                                  payload=b"SECRET")
        pool.release(packet)
        assert packet.tcp.payload == b""
        reused = pool.acquire_tcp("3.3.3.3", "4.4.4.4", 5678, 443,
                                  seq=7, flags=TCPFlags.SYN)
        assert reused is packet
        assert reused.tcp.payload == b""
        assert reused.src == "3.3.3.3" and reused.tcp.dst_port == 443
        assert reused.tcp.seq == 7 and reused.tcp.ack == 0
        assert reused.tcp.flags == TCPFlags.SYN
        assert pool.reused == 1

    def test_double_release_is_a_counted_noop(self):
        pool = PacketPool()
        packet = pool.acquire_tcp("1.1.1.1", "2.2.2.2", 1234, 80)
        pool.release(packet)
        pool.release(packet)
        assert pool.double_release == 1
        assert pool.released == 1
        assert len(pool._free) == 1

    def test_foreign_packet_release_is_ignored(self):
        pool = PacketPool()
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 1234, 80,
                                 payload=b"not mine")
        pool.release(packet)
        assert pool.released == 0
        assert packet.tcp.payload == b"not mine"  # untouched

    def test_clone_is_independent_of_recycling(self):
        pool = PacketPool()
        packet = pool.acquire_tcp("1.1.1.1", "2.2.2.2", 1234, 80,
                                  payload=b"ORIGINAL")
        copy = packet.clone()
        pool.release(packet)
        reused = pool.acquire_tcp("9.9.9.9", "8.8.8.8", 1, 2,
                                  payload=b"OVERWRITTEN")
        assert reused is packet
        assert copy.tcp.payload == b"ORIGINAL"
        assert copy.src == "1.1.1.1" and copy.tcp.dst_port == 80
        # Clones are not pool-owned: releasing one is a no-op.
        released_before = pool.released
        pool.release(copy)
        assert pool.released == released_before

    def test_counters_and_snapshot(self, pair):
        net, a, b = pair
        exchange(net, a, b, b"hello")
        pool = net.packet_pool
        snap = pool.snapshot()
        assert snap["acquired"] == pool.acquired > 0
        assert snap["released"] == pool.released > 0
        assert pool.high_water >= 1
        assert pool.high_water <= pool.released
