"""Low-level crafted-probe machinery shared by the tracer, trigger and
statefulness experiments.

Two tools:

* :class:`CraftedFlow` — a real TCP connection whose *subsequent* sends
  can carry arbitrary TTLs and repeated sequence numbers (the paper's
  paired TTL n−1 / n requests), with a pcap-style observer classifying
  what comes back: censorship notification, bare reset, ICMP
  Time-Exceeded, or genuine content.

* :class:`RawProbeSession` — scapy-style raw packet probes with no
  kernel TCP involvement (the stack's RST-for-unknown behaviour is
  suppressed for the session), used by the statefulness experiments
  where handshakes must be deliberately incomplete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ...httpsim.message import GetRequestSpec
from ...middlebox.notification import looks_like_block_page
from ...netsim.devices import Host
from ...netsim.packets import IcmpType, Packet, TCPFlags, make_tcp_packet
from ...netsim.tcp import TCPApp

@dataclass
class ProbeObservation:
    """What came back to the client during an observation window."""

    notification: bool = False
    notification_body: bytes = b""
    fin_from_target: bool = False
    rst_from_target: bool = False
    real_content: bool = False
    icmp_hops: List[str] = field(default_factory=list)
    payload_bytes: bytes = b""

    @property
    def censored(self) -> bool:
        return self.notification or self.rst_from_target

    @property
    def icmp_expired(self) -> bool:
        return bool(self.icmp_hops)


class _Observer:
    """Sniffer classifying replies belonging to one (port, dst) flow."""

    def __init__(self, dst_ip: str, local_port: int) -> None:
        self.dst_ip = dst_ip
        self.local_port = local_port
        self.observation = ProbeObservation()

    def __call__(self, now: float, packet: Packet) -> None:
        obs = self.observation
        if packet.is_icmp:
            message = packet.icmp
            original = message.original
            if (message.icmp_type == IcmpType.TIME_EXCEEDED
                    and original is not None and original.is_tcp
                    and original.tcp.src_port == self.local_port):
                obs.icmp_hops.append(packet.src)
            return
        if not packet.is_tcp or packet.src != self.dst_ip:
            return
        segment = packet.tcp
        if segment.dst_port != self.local_port:
            return
        if segment.payload:
            obs.payload_bytes += segment.payload
            if looks_like_block_page(segment.payload):
                obs.notification = True
                obs.notification_body += segment.payload
            else:
                obs.real_content = True
        if segment.has(TCPFlags.FIN):
            obs.fin_from_target = True
        if segment.has(TCPFlags.RST):
            obs.rst_from_target = True


class _SilentApp(TCPApp):
    """Connection app that records data but drives nothing."""

    def __init__(self) -> None:
        self.data = b""
        self.connected = False
        self.reset = False

    def on_connected(self, conn) -> None:
        self.connected = True

    def on_data(self, conn, data: bytes) -> None:
        self.data += data

    def on_rst(self, conn) -> None:
        self.reset = True


class CraftedFlow:
    """A real connection used as a substrate for crafted probes."""

    def __init__(self, world, client: Host, dst_ip: str,
                 dst_port: int = 80) -> None:
        self.world = world
        self.network = world.network
        self.client = client
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.app = _SilentApp()
        self.conn = None
        self._observer: Optional[_Observer] = None
        #: Handshake attempts made by the last :meth:`open` call.
        self.open_attempts = 0

    # -- lifecycle -----------------------------------------------------------

    def open(self, timeout: float = 4.0,
             attempts: Optional[int] = None) -> bool:
        """Complete a normal full-TTL 3-way handshake.

        A handshake that dies silently (no SYN|ACK, no RST) is retried —
        on a lossy substrate a single failed connect says nothing about
        censorship.  A RST ends the attempt immediately: that *is* a
        signal.  ``attempts=None`` defers to the hardening policy.
        """
        total = (self.network.hardening.fetch_attempts
                 if attempts is None else max(1, attempts))
        for attempt in range(1, total + 1):
            self.app = _SilentApp()
            self.conn = self.client.stack.connect(
                self.dst_ip, self.dst_port, self.app)
            deadline = self.network.now + timeout
            while not self.app.connected and self.network.now < deadline:
                if self.network.pending_events == 0:
                    break
                self.network.run(until=min(deadline, self.network.now + 0.25))
            self.open_attempts = attempt
            if self.app.connected or self.app.reset:
                break
            if self.conn.state != "CLOSED":
                self.conn.abort()
        self._observer = _Observer(self.dst_ip, self.conn.local_port)
        return self.app.connected

    def close(self) -> None:
        if self.conn is not None and self.conn.state != "CLOSED":
            self.conn.abort()
        self.network.run(until=self.network.now + 0.1)

    # -- probing -----------------------------------------------------------------

    def send_get(self, domain: str, *, ttl: Optional[int] = None,
                 advance: bool = True,
                 spec: Optional[GetRequestSpec] = None) -> None:
        if spec is None:
            spec = GetRequestSpec(domain=domain)
        self.conn.send(spec.to_bytes(), ttl=ttl, advance=advance)

    def observe(self, duration: float = 1.0) -> ProbeObservation:
        """Watch the wire for *duration*, then report what arrived."""
        assert self._observer is not None, "open() first"
        observer = _Observer(self.dst_ip, self.conn.local_port)
        self.client.add_sniffer(observer)
        try:
            self.network.run(until=self.network.now + duration)
        finally:
            self.client.remove_sniffer(observer)
        return observer.observation

    def probe_and_observe(self, domain: str, *, ttl: Optional[int] = None,
                          advance: bool = True,
                          spec: Optional[GetRequestSpec] = None,
                          duration: float = 1.0) -> ProbeObservation:
        """Attach the observer *before* sending so nothing is missed."""
        observer = _Observer(self.dst_ip, self.conn.local_port)
        self.client.add_sniffer(observer)
        try:
            self.send_get(domain, ttl=ttl, advance=advance, spec=spec)
            self.network.run(until=self.network.now + duration)
        finally:
            self.client.remove_sniffer(observer)
        return observer.observation


class RawProbeSession:
    """Raw crafted packets from an otherwise-silent port."""

    def __init__(self, world, client: Host, dst_ip: str,
                 dst_port: int = 80) -> None:
        self.world = world
        self.network = world.network
        self.client = client
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.local_port = next(client.stack.raw_ports)
        self.seq = 77_000
        self._saved_rst_behaviour: Optional[bool] = None

    def __enter__(self) -> "RawProbeSession":
        # Suppress the stack's RST-for-unknown so our crafted half-open
        # states survive (the authors' scapy scripts firewall these
        # kernel resets the same way).
        self._saved_rst_behaviour = self.client.stack.send_rst_for_unknown
        self.client.stack.send_rst_for_unknown = False
        return self

    def __exit__(self, *exc) -> None:
        if self._saved_rst_behaviour is not None:
            self.client.stack.send_rst_for_unknown = self._saved_rst_behaviour

    # -- crafted sends --------------------------------------------------------

    def send_flags(self, flags: TCPFlags, *, seq: Optional[int] = None,
                   ack: int = 0, payload: bytes = b"",
                   ttl: int = 64) -> None:
        packet = make_tcp_packet(
            self.client.ip, self.dst_ip, self.local_port, self.dst_port,
            seq=self.seq if seq is None else seq, ack=ack,
            flags=flags, payload=payload, ttl=ttl,
        )
        self.client.send_packet(packet)

    def send_syn(self, ttl: int = 64) -> None:
        self.send_flags(TCPFlags.SYN, ttl=ttl)

    def send_synack(self, ttl: int = 64) -> None:
        self.send_flags(TCPFlags.SYN | TCPFlags.ACK, ack=1, ttl=ttl)

    def send_ack(self, *, seq: Optional[int] = None, ack: int = 1,
                 ttl: int = 64) -> None:
        self.send_flags(TCPFlags.ACK, seq=seq, ack=ack, ttl=ttl)

    def send_get(self, domain: str, *, seq: Optional[int] = None,
                 ack: int = 1, ttl: int = 64) -> None:
        payload = GetRequestSpec(domain=domain).to_bytes()
        self.send_flags(TCPFlags.ACK | TCPFlags.PSH,
                        seq=self.seq + 1 if seq is None else seq,
                        ack=ack, payload=payload, ttl=ttl)

    # -- observing ------------------------------------------------------------

    def wait_synack(self, timeout: float = 2.0) -> Optional[Packet]:
        """Wait for the target's SYN+ACK to our raw SYN."""
        seen: List[Packet] = []

        def sniffer(now: float, packet: Packet) -> None:
            if (packet.is_tcp and packet.src == self.dst_ip
                    and packet.tcp.dst_port == self.local_port
                    and packet.tcp.has(TCPFlags.SYN)
                    and packet.tcp.has(TCPFlags.ACK)):
                seen.append(packet)

        self.client.add_sniffer(sniffer)
        try:
            deadline = self.network.now + timeout
            while not seen and self.network.now < deadline:
                if self.network.pending_events == 0:
                    break
                self.network.run(until=min(deadline,
                                           self.network.now + 0.25))
            self.network.run(until=deadline)
        finally:
            self.client.remove_sniffer(sniffer)
        return seen[0] if seen else None

    def observe(self, duration: float = 1.0) -> ProbeObservation:
        observer = _Observer(self.dst_ip, self.local_port)
        self.client.add_sniffer(observer)
        try:
            self.network.run(until=self.network.now + duration)
        finally:
            self.client.remove_sniffer(observer)
        return observer.observation

    def send_and_observe(self, send_fn, duration: float = 1.0
                         ) -> ProbeObservation:
        """Attach the observer, run *send_fn*, watch for *duration*."""
        observer = _Observer(self.dst_ip, self.local_port)
        self.client.add_sniffer(observer)
        try:
            send_fn()
            self.network.run(until=self.network.now + duration)
        finally:
            self.client.remove_sniffer(observer)
        return observer.observation
