"""Slow, obviously-correct references for the netsim fast paths.

* :class:`HeapOracle` — the event queue as one global binary heap.  It
  speaks the scheduler protocol :class:`~repro.netsim.engine.Network`
  uses (``push`` / ``cancel`` / ``len`` / ``drain(clock, until,
  max_events)`` / ``drained``), so property tests can run the same
  schedule through it and through
  :class:`~repro.netsim.scheduler.SlotCalendar` and compare.
* :class:`RoutingOracle` — ECMP next hops and paths recomputed from
  ``net.graph`` on every call: no FIB, no flow-hash memo, no path
  cache, no delivery plans.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

import networkx as nx

from repro.netsim.devices import Node
from repro.netsim.engine import Network, _ecmp_hash
from repro.netsim.errors import RoutingError, SimulationError


class HeapOracle:
    """Events in ``(when, seq)`` order off a single ``heapq``."""

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._live = 0
        self.drained = 0

    def push(self, when, seq, fn, args) -> list:
        entry = [when, seq, fn, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: list) -> bool:
        if entry[2] is None:
            return False
        entry[2] = None
        self._live -= 1
        return True

    def __len__(self) -> int:
        return self._live

    def drain(self, clock, until: Optional[float], max_events: int) -> int:
        processed = 0
        self.drained = 0
        queue = self._heap
        try:
            while queue:
                head = queue[0]
                if until is not None and head[0] > until:
                    break
                if head[2] is None:  # cancelled: skip, no budget charge
                    heappop(queue)
                    continue
                if processed >= max_events:
                    raise SimulationError(
                        f"event budget exceeded ({max_events}); "
                        f"likely a packet loop")
                heappop(queue)
                self._live -= 1
                if head[0] > clock.now:
                    clock.now = head[0]
                fn, head[2] = head[2], None
                fn(*head[3])
                processed += 1
                if clock.step_hook is not None:
                    clock.step_hook()
        finally:
            self.drained = processed
        return processed


class RoutingOracle:
    """Hash-based ECMP routing straight from the topology graph.

    Only the Dijkstra distance map toward each destination is memoized
    (per oracle instance, so build a fresh oracle after changing the
    topology); equal-cost candidates and the flow hash are recomputed
    on every call.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self._dist: Dict[str, Dict[str, float]] = {}

    def _distances_to(self, name: str) -> Dict[str, float]:
        dist = self._dist.get(name)
        if dist is None:
            dist = self._dist[name] = nx.single_source_dijkstra_path_length(
                self.net.graph, name, weight="delay")
        return dist

    def next_hop(self, from_node: Node, dst_ip: str,
                 src_ip: Optional[str] = None) -> Optional[Node]:
        net = self.net
        owner = net.ip_owner.get(dst_ip)
        if owner is None or owner is from_node:
            return None
        dist = self._distances_to(owner.name)
        if from_node.name not in dist:
            return None
        best = None
        candidates: List[str] = []
        for neighbor in net.graph.neighbors(from_node.name):
            if neighbor not in dist:
                continue
            cost = net.graph.edges[from_node.name, neighbor]["delay"] \
                + dist[neighbor]
            if best is None or cost < best - 1e-12:
                best, candidates = cost, [neighbor]
            elif abs(cost - best) <= 1e-12:
                candidates.append(neighbor)
        if not candidates:
            return None
        candidates.sort()
        digest = _ecmp_hash(src_ip, dst_ip, from_node.name)
        return net.nodes[candidates[digest % len(candidates)]]

    def path_to(self, from_node: Node, dst_ip: str,
                max_hops: int = 64) -> List[Node]:
        src_ip = from_node.ip if from_node.ips else None
        owner = self.net.ip_owner.get(dst_ip)
        if owner is None:
            raise RoutingError(f"no node owns {dst_ip}")
        path = [from_node]
        current = from_node
        for _ in range(max_hops):
            if current is owner:
                return path
            nxt = self.next_hop(current, dst_ip, src_ip)
            if nxt is None:
                raise RoutingError(
                    f"no route from {from_node.name} to {dst_ip} "
                    f"(stuck at {current.name})")
            path.append(nxt)
            current = nxt
        raise RoutingError(f"path to {dst_ip} exceeds {max_hops} hops")
