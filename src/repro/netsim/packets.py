"""Packet model: IPv4 headers with TCP, UDP and ICMP payloads.

Packets are small mutable dataclasses.  Routers mutate the TTL in place
on a per-hop copy; endpoints and middleboxes treat received packets as
immutable.  ``clone()`` produces deep-enough copies for wiretaps.

:class:`PacketPool` recycles TCP packets on the simulator's hottest
path.  Pooling is safe because payload bytes are immutable (anything
that keeps ``segment.payload`` keeps the bytes object, which survives
the packet's recycling); only retaining the :class:`Packet` or
:class:`TCPSegment` *object* across a release is hazardous, and the
engine only releases packets nothing retains (see the release-site
comments in ``engine.py``).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

DEFAULT_TTL = 64

_ip_id_counter = itertools.count(1)


def next_ip_id() -> int:
    """Return a fresh IP identification value (16-bit wrap)."""
    return next(_ip_id_counter) & 0xFFFF


class TCPFlags(enum.IntFlag):
    """TCP header flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


class IcmpType(enum.IntEnum):
    """The ICMP types the simulator generates."""

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


@dataclass(slots=True)
class TCPSegment:
    """A TCP segment: ports, sequence space, flags and payload bytes."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: TCPFlags = TCPFlags(0)
    payload: bytes = b""
    window: int = 65535

    def has(self, flag: TCPFlags) -> bool:
        """Return True if *flag* is set on this segment."""
        # Raw int test: IntFlag.__and__ + __bool__ dominate the TCP
        # hot path otherwise.  Falls back for plain-int flags.
        try:
            return (self.flags._value_ & flag._value_) != 0
        except AttributeError:
            return bool(self.flags & flag)

    @property
    def seg_len(self) -> int:
        """Sequence-space length: payload bytes plus SYN/FIN."""
        length = len(self.payload)
        try:
            bits = self.flags._value_
        except AttributeError:
            bits = int(self.flags)
        if bits & 0x02:  # SYN
            length += 1
        if bits & 0x01:  # FIN
            length += 1
        return length

    def describe(self) -> str:
        """Short human-readable rendering, e.g. ``SYN|ACK seq=1 ack=1``."""
        names = [f.name for f in TCPFlags if self.flags & f and f.name]
        flag_text = "|".join(names) if names else "-"
        return (
            f"{flag_text} seq={self.seq} ack={self.ack} "
            f"len={len(self.payload)}"
        )


@dataclass(slots=True)
class UDPDatagram:
    """A UDP datagram carrying opaque application payload."""

    src_port: int
    dst_port: int
    payload: object = b""


@dataclass
class IcmpMessage:
    """An ICMP message.

    For TIME_EXCEEDED / DEST_UNREACHABLE, ``original`` holds the packet
    that triggered the error, mimicking the quoted header bytes a real
    ICMP error carries (enough for traceroute to match probes).
    """

    icmp_type: IcmpType
    code: int = 0
    original: Optional["Packet"] = None
    ident: int = 0
    seq: int = 0


Payload = Union[TCPSegment, UDPDatagram, IcmpMessage]


@dataclass
class Packet:
    """An IPv4 packet: addressing, TTL, identification and payload."""

    src: str
    dst: str
    payload: Payload
    ttl: int = DEFAULT_TTL
    ip_id: int = field(default_factory=next_ip_id)

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.payload, TCPSegment)

    @property
    def is_udp(self) -> bool:
        return isinstance(self.payload, UDPDatagram)

    @property
    def is_icmp(self) -> bool:
        return isinstance(self.payload, IcmpMessage)

    @property
    def tcp(self) -> TCPSegment:
        """The TCP payload; raises TypeError for non-TCP packets."""
        if not isinstance(self.payload, TCPSegment):
            raise TypeError(f"not a TCP packet: {self!r}")
        return self.payload

    @property
    def udp(self) -> UDPDatagram:
        """The UDP payload; raises TypeError for non-UDP packets."""
        if not isinstance(self.payload, UDPDatagram):
            raise TypeError(f"not a UDP packet: {self!r}")
        return self.payload

    @property
    def icmp(self) -> IcmpMessage:
        """The ICMP payload; raises TypeError for non-ICMP packets."""
        if not isinstance(self.payload, IcmpMessage):
            raise TypeError(f"not an ICMP packet: {self!r}")
        return self.payload

    def flow_key(self) -> tuple:
        """The 5-tuple identifying this packet's flow (TCP/UDP only)."""
        if self.is_tcp:
            seg = self.tcp
            return ("tcp", self.src, seg.src_port, self.dst, seg.dst_port)
        if self.is_udp:
            dgram = self.udp
            return ("udp", self.src, dgram.src_port, self.dst, dgram.dst_port)
        return ("icmp", self.src, 0, self.dst, 0)

    def clone(self) -> "Packet":
        """Copy the packet (payload dataclass copied, bytes shared)."""
        # Type-dispatched positional construction: dataclasses.replace
        # costs ~10% of a packet-level fetch; exact-type checks keep
        # payload subclasses on the general path.
        p = self.payload
        tp = type(p)
        if tp is TCPSegment:
            copied: Payload = TCPSegment(p.src_port, p.dst_port, p.seq,
                                         p.ack, p.flags, p.payload, p.window)
        elif tp is UDPDatagram:
            copied = UDPDatagram(p.src_port, p.dst_port, p.payload)
        else:
            copied = replace(p)
        return Packet(
            src=self.src,
            dst=self.dst,
            payload=copied,
            ttl=self.ttl,
            ip_id=self.ip_id,
        )

    def describe(self) -> str:
        """One-line rendering used in captures and debug output."""
        if self.is_tcp:
            seg = self.tcp
            detail = f"TCP {seg.src_port}->{seg.dst_port} {seg.describe()}"
        elif self.is_udp:
            dgram = self.udp
            detail = f"UDP {dgram.src_port}->{dgram.dst_port}"
        else:
            msg = self.icmp
            detail = f"ICMP type={msg.icmp_type.name}"
        return f"{self.src} > {self.dst} ttl={self.ttl} id={self.ip_id} {detail}"


def make_tcp_packet(
    src: str,
    dst: str,
    src_port: int,
    dst_port: int,
    *,
    seq: int = 0,
    ack: int = 0,
    flags: TCPFlags = TCPFlags(0),
    payload: bytes = b"",
    ttl: int = DEFAULT_TTL,
    ip_id: Optional[int] = None,
) -> Packet:
    """Convenience constructor for a TCP packet."""
    segment = TCPSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        payload=payload,
    )
    packet = Packet(src=src, dst=dst, payload=segment, ttl=ttl)
    if ip_id is not None:
        packet.ip_id = ip_id
    return packet


def make_udp_packet(
    src: str,
    dst: str,
    src_port: int,
    dst_port: int,
    payload: object,
    *,
    ttl: int = DEFAULT_TTL,
) -> Packet:
    """Convenience constructor for a UDP packet."""
    datagram = UDPDatagram(src_port=src_port, dst_port=dst_port, payload=payload)
    return Packet(src=src, dst=dst, payload=datagram, ttl=ttl)


def make_time_exceeded(router_ip: str, offending: Packet) -> Packet:
    """Build the ICMP Time-Exceeded reply a router sends when TTL hits 0."""
    message = IcmpMessage(
        icmp_type=IcmpType.TIME_EXCEEDED,
        code=0,
        original=offending.clone(),
    )
    return Packet(src=router_ip, dst=offending.src, payload=message)


def make_dest_unreachable(router_ip: str, offending: Packet, code: int = 1) -> Packet:
    """Build an ICMP Destination-Unreachable reply (default: host unreachable)."""
    message = IcmpMessage(
        icmp_type=IcmpType.DEST_UNREACHABLE,
        code=code,
        original=offending.clone(),
    )
    return Packet(src=router_ip, dst=offending.src, payload=message)


#: Free-list size cap — beyond this, released packets are simply
#: dropped for the GC (a topology burst should not pin memory forever).
POOL_FREE_MAX = 4096


class PacketPool:
    """Free-list recycling of TCP packets.

    Only TCP packets are pooled (they dominate every fetch and probe);
    ICMP and UDP stay on the plain constructors.  The contract:

    * :meth:`acquire_tcp` behaves exactly like :func:`make_tcp_packet`
      — including drawing a fresh IP id *before* honoring an explicit
      ``ip_id`` override, so the global id sequence (and therefore every
      trace) is the same as with freshly constructed packets.
    * :meth:`release` is a no-op for packets the pool did not create,
      and a counted no-op for double releases, so release sites never
      need to know a packet's provenance.
    * On release the payload reference is scrubbed; every header field
      is reset on the next acquire.
    """

    __slots__ = ("_free", "acquired", "reused", "released",
                 "double_release", "high_water")

    def __init__(self) -> None:
        self._free: List[Packet] = []
        self.acquired = 0
        self.reused = 0
        self.released = 0
        self.double_release = 0
        self.high_water = 0

    def acquire_tcp(
        self,
        src: str,
        dst: str,
        src_port: int,
        dst_port: int,
        *,
        seq: int = 0,
        ack: int = 0,
        flags: TCPFlags = TCPFlags(0),
        payload: bytes = b"",
        ttl: int = DEFAULT_TTL,
        ip_id: Optional[int] = None,
    ) -> Packet:
        """A TCP packet, recycled when the free list has one."""
        self.acquired += 1
        free = self._free
        if not free:
            packet = make_tcp_packet(
                src, dst, src_port, dst_port, seq=seq, ack=ack,
                flags=flags, payload=payload, ttl=ttl, ip_id=ip_id,
            )
            packet._pooled = True  # type: ignore[attr-defined]
            packet._in_pool = False  # type: ignore[attr-defined]
            return packet
        self.reused += 1
        packet = free.pop()
        packet._in_pool = False  # type: ignore[attr-defined]
        packet.src = src
        packet.dst = dst
        packet.ttl = ttl
        # make_tcp_packet always draws an id (default_factory) and only
        # then applies an override — reproduce that draw order exactly.
        packet.ip_id = next_ip_id()
        if ip_id is not None:
            packet.ip_id = ip_id
        segment = packet.payload
        segment.src_port = src_port
        segment.dst_port = dst_port
        segment.seq = seq
        segment.ack = ack
        segment.flags = flags
        segment.payload = payload
        segment.window = 65535
        return packet

    def release(self, packet: Packet) -> None:
        """Return *packet* to the free list if the pool created it."""
        state = packet.__dict__
        if not state.get("_pooled"):
            return
        if state.get("_in_pool"):
            self.double_release += 1
            return
        self.released += 1
        packet._in_pool = True  # type: ignore[attr-defined]
        packet.payload.payload = b""  # drop the bytes reference early
        free = self._free
        if len(free) < POOL_FREE_MAX:
            free.append(packet)
            if len(free) > self.high_water:
                self.high_water = len(free)

    def snapshot(self) -> dict:
        """Counter snapshot for ``repro.obs.metrics``."""
        return {
            "acquired": self.acquired,
            "reused": self.reused,
            "released": self.released,
            "double_release": self.double_release,
            "free": len(self._free),
            "high_water": self.high_water,
        }
