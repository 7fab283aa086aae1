"""Building one ISP's internal network and censorship deployment.

Topology per ISP::

    client -- edge-client --+-- agg_0 ---+
    scan hosts -- edge-p_j --+-- agg_1 ---+-- border -- (core / upstreams)
    resolvers --/            +-- agg_i ---+

Every edge router connects to every aggregation router with equal-cost
links, so the ECMP pair-hash spreads (client, destination) flows across
the aggregation layer — this is what makes "fraction of paths poisoned"
a measurable quantity.  Middleboxes are attached to aggregation routers
per the profile's coverage numbers; their blocklists are per-box
samples of the ISP master list at the profile's consistency density.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..dnssim.resolver import ResolverConfig, ResolverService, mixed_poison
from ..dnssim.zones import GlobalDNS
from ..httpsim.server import OriginServer
from ..middlebox.interceptive import COVERT, InterceptiveMiddlebox, OVERT
from ..middlebox.notification import profile_for
from ..middlebox.triggers import TriggerSpec
from ..middlebox.wiretap import WiretapMiddlebox
from ..netsim.addressing import Prefix, PrefixAllocator
from ..netsim.devices import Host, Router
from ..netsim.engine import Network
from .profiles import (
    DNS_POISON,
    HTTP_IM_COVERT,
    HTTP_IM_OVERT,
    HTTP_WM,
    ISPProfile,
)

#: Link delays inside an ISP.
EDGE_DELAY = 0.002
AGG_DELAY = 0.003
BORDER_DELAY = 0.003


@dataclass
class ISPDeployment:
    """Everything built for one ISP — the ground truth the measurement
    layer tries to rediscover."""

    profile: ISPProfile
    pool: Prefix
    network: Network
    client: Optional[Host] = None
    border: Optional[Router] = None
    edge_client: Optional[Router] = None
    aggregation: List[Router] = field(default_factory=list)
    scan_edges: List[Router] = field(default_factory=list)
    scan_targets: List[str] = field(default_factory=list)
    scan_prefixes: List[Prefix] = field(default_factory=list)
    middleboxes: List[object] = field(default_factory=list)
    peering_boxes: Dict[str, object] = field(default_factory=dict)
    peering_routers: Dict[str, Router] = field(default_factory=dict)
    resolvers: List[Tuple[str, ResolverService]] = field(default_factory=list)
    honest_resolver_ip: Optional[str] = None
    default_resolver_ip: Optional[str] = None
    http_blocklist: FrozenSet[str] = frozenset()
    dns_blocklist: FrozenSet[str] = frozenset()
    static_poison_ip: Optional[str] = None

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def resolver_ips(self) -> List[str]:
        return [ip for ip, _ in self.resolvers]

    def poisoned_resolver_ips(self) -> List[str]:
        return [ip for ip, service in self.resolvers
                if service.config.is_poisoned]

    def owns_ip(self, ip: str) -> bool:
        return self.pool.contains(ip)


def _sample_blocklist(master: FrozenSet[str], density: float,
                      rng: random.Random) -> FrozenSet[str]:
    """An independent per-site sample of the master list."""
    if density >= 1.0:
        return master
    return frozenset(d for d in sorted(master) if rng.random() < density)


def _sized_subset(master: FrozenSet[str], size: int,
                  rng: random.Random) -> FrozenSet[str]:
    """A fixed-size sample of the master list."""
    ordered = sorted(master)
    size = min(size, len(ordered))
    return frozenset(rng.sample(ordered, size))


class ISPBuilder:
    """Builds one :class:`ISPDeployment` into a shared network."""

    def __init__(
        self,
        network: Network,
        global_dns: GlobalDNS,
        profile: ISPProfile,
        *,
        http_blocklist: FrozenSet[str] = frozenset(),
        dns_blocklist: FrozenSet[str] = frozenset(),
        seed: int = 1808,
        scale: float = 1.0,
    ) -> None:
        self.network = network
        self.global_dns = global_dns
        self.profile = profile
        self.http_blocklist = http_blocklist
        self.dns_blocklist = dns_blocklist
        self.rng = random.Random(f"isp|{seed}|{profile.name}")
        self.scale = scale
        self.allocator = PrefixAllocator(Prefix.parse(profile.pool))
        self.deployment = ISPDeployment(
            profile=profile,
            pool=Prefix.parse(profile.pool),
            network=network,
            http_blocklist=http_blocklist,
            dns_blocklist=dns_blocklist,
        )

    # ----------------------------------------------------------------------
    def build(self) -> ISPDeployment:
        self._build_backbone()
        self._build_scan_space()
        self._build_resolvers()
        self._deploy_middleboxes()
        return self.deployment

    def _scaled(self, value: int, minimum: int) -> int:
        return max(minimum, round(value * self.scale))

    # -- topology ----------------------------------------------------------

    def _build_backbone(self) -> None:
        name = self.profile.name
        dep = self.deployment
        net = self.network
        asn = self.profile.asn

        dep.border = net.add_router(
            f"{name}-border", self.allocator.allocate_address(), asn)
        dep.edge_client = net.add_router(
            f"{name}-edge", self.allocator.allocate_address(), asn)

        n_agg = self._scaled(self.profile.n_aggregation, 4)
        for index in range(n_agg):
            agg = net.add_router(
                f"{name}-agg{index}", self.allocator.allocate_address(), asn)
            dep.aggregation.append(agg)
            net.link(dep.edge_client.name, agg.name, delay=AGG_DELAY)
            net.link(agg.name, dep.border.name, delay=BORDER_DELAY)

        dep.client = net.add_host(
            f"{name}-client", self.allocator.allocate_address(), asn)
        net.link(dep.client.name, dep.edge_client.name, delay=EDGE_DELAY)

        # Static address poisoned resolvers point blocked domains at —
        # an ISP-owned host serving nothing (connections hang/404).
        dep.static_poison_ip = self.allocator.allocate_address()
        blackhole = net.add_host(f"{name}-blackhole", dep.static_poison_ip, asn)
        blackhole.stack.send_rst_for_unknown = False
        net.link(blackhole.name, dep.edge_client.name, delay=EDGE_DELAY)

    def _build_scan_space(self) -> None:
        """Prefixes with live port-80 hosts — what outside VPs probe."""
        name = self.profile.name
        dep = self.deployment
        net = self.network
        asn = self.profile.asn
        n_prefixes = self._scaled(self.profile.n_scan_prefixes, 2)
        # Resolvers live inside the scan prefixes (offsets >= 20); make
        # sure capacity suffices at every scale.
        per_prefix_capacity = (1 << (32 - self.profile.scan_prefix_len)) - 22
        resolvers_needed = 0
        if self.profile.mechanism == DNS_POISON:
            resolvers_needed = self._scaled(self.profile.resolver_total, 6)
        if resolvers_needed and per_prefix_capacity > 0:
            required = -(-resolvers_needed // per_prefix_capacity)
            n_prefixes = max(n_prefixes, required)

        for index in range(n_prefixes):
            prefix = self.allocator.allocate(self.profile.scan_prefix_len)
            dep.scan_prefixes.append(prefix)
            edge = net.add_router(
                f"{name}-pedge{index}", self.allocator.allocate_address(), asn)
            dep.scan_edges.append(edge)
            for agg in dep.aggregation:
                net.link(edge.name, agg.name, delay=AGG_DELAY)
            # Two live web hosts per prefix (the paper samples two IPs
            # per live prefix).
            for slot in range(2):
                ip = prefix.address(10 + slot)
                host = net.add_host(f"{name}-web{index}-{slot}", ip, asn)
                net.link(host.name, edge.name, delay=EDGE_DELAY)
                OriginServer(name=host.name).install(host)
                dep.scan_targets.append(ip)

    # -- DNS ------------------------------------------------------------------

    def _build_resolvers(self) -> None:
        name = self.profile.name
        dep = self.deployment
        net = self.network
        asn = self.profile.asn

        # Every ISP runs at least one honest resolver for its clients.
        honest_ip = self.allocator.allocate_address()
        honest_host = net.add_host(f"{name}-resolver-honest", honest_ip, asn)
        net.link(honest_host.name, dep.edge_client.name, delay=EDGE_DELAY)
        honest = ResolverService(
            self.global_dns, ResolverConfig(region="in"))
        honest.install(honest_host)
        dep.resolvers.append((honest_ip, honest))
        dep.honest_resolver_ip = honest_ip
        dep.default_resolver_ip = honest_ip

        if self.profile.mechanism != DNS_POISON:
            return

        total = self._scaled(self.profile.resolver_total, 6)
        poisoned_count = self._scaled(self.profile.resolver_poisoned, 1)
        poisoned_count = min(poisoned_count, total)
        strategy = mixed_poison(dep.static_poison_ip, "127.0.0.2")

        first_poisoned_ip = None
        for index in range(total):
            prefix = dep.scan_prefixes[index % len(dep.scan_prefixes)]
            edge = dep.scan_edges[index % len(dep.scan_edges)]
            offset = 20 + (index // len(dep.scan_prefixes))
            if offset >= prefix.size:
                raise ValueError(
                    f"{name}: scan prefixes too small for "
                    f"{total} resolvers")
            ip = prefix.address(offset)
            host = net.add_host(f"{name}-resolver{index}", ip, asn)
            net.link(host.name, edge.name, delay=EDGE_DELAY)
            poisoned = index < poisoned_count
            if poisoned:
                blocklist = _sample_blocklist(
                    self.dns_blocklist, self.profile.dns_consistency,
                    self.rng)
                config = ResolverConfig(
                    region="in", blocklist=blocklist,
                    poison_strategy=strategy)
                if first_poisoned_ip is None:
                    first_poisoned_ip = ip
            else:
                config = ResolverConfig(region="in")
            service = ResolverService(self.global_dns, config)
            service.install(host)
            dep.resolvers.append((ip, service))

        if first_poisoned_ip is not None:
            # The measurement client of a DNS-censoring ISP is (like
            # most of its subscribers) behind a poisoned resolver.
            dep.default_resolver_ip = first_poisoned_ip

    # -- middleboxes ----------------------------------------------------------

    def _deploy_middleboxes(self) -> None:
        if not self.profile.censors_http:
            return
        dep = self.deployment
        n_agg = len(dep.aggregation)
        n_boxes = round(n_agg * self.profile.inside_coverage)
        if self.profile.inside_coverage > 0:
            n_boxes = max(1, n_boxes)
        n_inbound_visible = round(n_agg * self.profile.outside_coverage)

        chosen = self.rng.sample(range(n_agg), n_boxes)
        inbound_visible = set(chosen[:n_inbound_visible])
        for counter, agg_index in enumerate(chosen):
            sees_inbound = (agg_index in inbound_visible
                            and not self.profile.source_scoped)
            box = self._make_middlebox(
                f"{self.profile.name}-mb{counter}",
                blocklist=_sample_blocklist(
                    self.http_blocklist, self.profile.consistency, self.rng),
                scoped=not sees_inbound,
                seed_tag=counter,
            )
            router = dep.aggregation[agg_index]
            if box.kind == "wiretap":
                router.attach_tap(box)
            else:
                router.attach_inline(box)
            dep.middleboxes.append(box)

    def _make_middlebox(self, name: str, *, blocklist: FrozenSet[str],
                        scoped: bool, seed_tag: int):
        mechanism = self.profile.mechanism
        source_prefixes = [self.deployment.pool] if scoped else None
        spec = self._trigger_spec(blocklist)
        notification = profile_for(self.profile.name)
        session = self._session_kwargs(seed_tag)
        if mechanism == HTTP_WM:
            return WiretapMiddlebox(
                name, self.profile.name, spec, notification,
                miss_rate=self.profile.miss_rate,
                fixed_ip_id=self.profile.fixed_ip_id,
                seed=self.rng.randrange(2 ** 31) + seed_tag,
                source_prefixes=source_prefixes,
                **session,
            )
        mode = OVERT if mechanism == HTTP_IM_OVERT else COVERT
        return InterceptiveMiddlebox(
            name, self.profile.name, spec, mode=mode,
            notification=notification if mode == OVERT else None,
            source_prefixes=source_prefixes,
            **session,
        )

    def _session_kwargs(self, seed_tag: int) -> dict:
        """Session-table parameters threaded from the profile.

        The session seed is derived (not drawn from ``self.rng``) so a
        bounded profile perturbs no other sampling stream.
        """
        profile = self.profile
        return {
            "max_flows": profile.session_max_flows,
            "eviction_policy": profile.session_eviction,
            "overload_policy": profile.session_overload,
            "mapping_expiry": profile.session_mapping_expiry,
            "residual_window": profile.session_residual_window,
            "residual_scope": profile.session_residual_scope,
            "session_seed": seed_tag,
        }

    def _trigger_spec(self, blocklist: FrozenSet[str]) -> TriggerSpec:
        """Per-family matching discipline (see middlebox.triggers).

        Wiretap boxes grep for the exact-case ``Host`` keyword but
        tolerate whitespace; interceptive boxes are case-insensitive
        but whitespace-strict; the covert IM additionally keys on the
        last Host occurrence.  This yields exactly the section-5
        evasion matrix.
        """
        mechanism = self.profile.mechanism
        if mechanism == HTTP_WM:
            return TriggerSpec(
                blocklist=blocklist,
                exact_keyword_case=True,
                strict_value_whitespace=False,
                inspect_last_host_only=False,
                match_www_alias=False,
            )
        if mechanism == HTTP_IM_OVERT:
            return TriggerSpec(
                blocklist=blocklist,
                exact_keyword_case=False,
                strict_value_whitespace=True,
                inspect_last_host_only=False,
                match_www_alias=True,
            )
        return TriggerSpec(
            blocklist=blocklist,
            exact_keyword_case=False,
            strict_value_whitespace=False,
            inspect_last_host_only=True,
            match_www_alias=True,
        )

    # -- peering (called by the world assembler) -------------------------------

    def add_peering_box(self, stub_name: str, router: Router,
                        list_size: int):
        """Install this ISP's censoring box on a peering router facing
        *stub_name* (Table 3's collateral-damage source)."""
        blocklist = _sized_subset(self.http_blocklist, list_size, self.rng)
        box = self._make_middlebox(
            f"{self.profile.name}-peer-{stub_name}",
            blocklist=blocklist,
            scoped=False,
            seed_tag=zlib.crc32(stub_name.encode("ascii")) & 0xFFFF,
        )
        if box.kind == "wiretap":
            router.attach_tap(box)
        else:
            router.attach_inline(box)
        self.deployment.peering_boxes[stub_name] = box
        self.deployment.peering_routers[stub_name] = router
        return box
