"""Process-safe metrics: counters, gauges, fixed-bucket histograms.

The registry is deliberately minimal and **deterministic**:

* histograms use *fixed* bucket bounds declared at creation, so the
  same observations produce the same snapshot no matter which process
  observed them;
* snapshots are plain JSON-able dicts with canonical
  ``name{label=value,...}`` keys, merged associatively — each campaign
  worker fills its own registry, the parent merges (see
  :meth:`MetricsRegistry.merge`) snapshots in canonical unit-commit
  order, and the result is
  byte-identical whether the campaign ran serial or ``--workers N``;
* nothing here ever touches the hash-chained journal — metrics live in
  the run directory's ``metrics.json`` sidecar, beside
  ``timings.jsonl``.

The full metric catalog (every name, type and label) is documented in
``docs/OBSERVABILITY.md``; :func:`collect_network_metrics` and
:func:`collect_world_metrics` scrape the cheap always-on counters the
hot paths maintain (cache hits, drops, events) into registry form.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Fixed bucket bounds (upper-inclusive) for simulated-step histograms.
STEP_BUCKETS: Tuple[float, ...] = (
    1_000, 10_000, 100_000, 1_000_000, 10_000_000)

#: Fixed bucket bounds for wall-clock seconds histograms.
WALL_BUCKETS: Tuple[float, ...] = (0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def metric_key(name: str, labels: Dict[str, str]) -> str:
    """Canonical ``name{k=v,...}`` key (labels sorted; bare name if none)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (merge keeps the maximum)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus sum and count.

    ``bounds`` are upper-inclusive; one implicit overflow bucket
    catches everything beyond the last bound.  Fixed bounds are what
    keep snapshots deterministic across processes.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """One process's (or one unit's) metric store."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._histogram_bounds: Dict[str, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (create-on-first-use)
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, bounds: Sequence[float] = STEP_BUCKETS,
                  **labels: str) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        elif instrument.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {key} re-declared with different bounds "
                f"({instrument.bounds} vs {tuple(bounds)})")
        return instrument

    # ------------------------------------------------------------------
    # Snapshot / merge (the process-crossing form)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict:
        """JSON-able, key-sorted view of every instrument."""
        return {
            "counters": {key: self._counters[key].value
                         for key in sorted(self._counters)},
            "gauges": {key: self._gauges[key].value
                       for key in sorted(self._gauges)},
            "histograms": {
                key: {
                    "bounds": list(hist.bounds),
                    "counts": list(hist.counts),
                    "sum": hist.total,
                    "count": hist.count,
                }
                for key, hist in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Dict) -> None:
        """Fold one snapshot in: counters/histograms add, gauges max.

        Merging is associative and — because campaign parents merge in
        canonical unit order — deterministic across worker counts.
        """
        for key, value in snapshot.get("counters", {}).items():
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter()
            counter.inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            gauge.set(max(gauge.value, value))
        for key, payload in snapshot.get("histograms", {}).items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(payload["bounds"])
            if list(hist.bounds) != list(payload["bounds"]):
                raise ValueError(
                    f"cannot merge histogram {key}: bounds differ")
            for index, count in enumerate(payload["counts"]):
                hist.counts[index] += count
            hist.total += payload["sum"]
            hist.count += payload["count"]

    def render_lines(self) -> List[str]:
        """Human-readable one-line-per-metric rendering (reports)."""
        snap = self.snapshot()
        lines = [f"{key} {value}" for key, value
                 in snap["counters"].items()]
        lines += [f"{key} {value}" for key, value
                  in snap["gauges"].items()]
        for key, hist in snap["histograms"].items():
            lines.append(
                f"{key} count={hist['count']} sum={round(hist['sum'], 3)} "
                f"buckets={hist['counts']}")
        return lines


# ---------------------------------------------------------------------------
# Scrapers: always-on cheap counters -> registry form
# ---------------------------------------------------------------------------

def collect_network_metrics(registry: MetricsRegistry, network,
                            **labels: str) -> None:
    """Scrape a :class:`~repro.netsim.engine.Network`'s counters.

    The hot paths maintain plain integer attributes (a few ns per
    event); this turns them into the catalogued metrics.
    """
    registry.counter("netsim_events_total", **labels).inc(
        network.events_processed)
    for reason, count in sorted(network.drop_stats().items()):
        registry.counter("netsim_drops_total",
                         reason=reason, **labels).inc(count)
    registry.counter("netsim_fib_hits_total", **labels).inc(
        network.fib_hits)
    registry.counter("netsim_fib_builds_total", **labels).inc(
        network.fib_builds)
    registry.counter("netsim_flowhash_hits_total", **labels).inc(
        network.flowhash_hits)
    registry.counter("netsim_flowhash_misses_total", **labels).inc(
        network.flowhash_misses)
    registry.counter("netsim_path_cache_hits_total", **labels).inc(
        network.path_cache_hits)
    registry.counter("netsim_path_cache_misses_total", **labels).inc(
        network.path_cache_misses)
    # Delivery-plan and packet-pool counters (PR 9).  These are driven
    # entirely by the (scheduler-independent) event sequence, so they
    # are as deterministic as the FIB counters above and safe to emit
    # from the default campaign scrape.  Emitted only when the feature
    # fired, keeping earlier worlds' snapshots byte-identical.
    if network.fwd_plan_hits or network.fwd_plan_builds:
        registry.counter("netsim_fwd_plan_hits_total", **labels).inc(
            network.fwd_plan_hits)
        registry.counter("netsim_fwd_plan_builds_total", **labels).inc(
            network.fwd_plan_builds)
    if network.express_plan_hits or network.express_plan_builds:
        registry.counter("express_plan_hits_total", **labels).inc(
            network.express_plan_hits)
        registry.counter("express_plan_builds_total", **labels).inc(
            network.express_plan_builds)
    pool = getattr(network, "packet_pool", None)
    if pool is not None and pool.acquired:
        registry.counter("packet_pool_acquired_total", **labels).inc(
            pool.acquired)
        registry.counter("packet_pool_reused_total", **labels).inc(
            pool.reused)
        registry.counter("packet_pool_released_total", **labels).inc(
            pool.released)
        registry.counter("packet_pool_double_release_total", **labels).inc(
            pool.double_release)
        registry.gauge("packet_pool_high_water", **labels).set(
            pool.high_water)
    for layer, count in sorted(network.client_retries.items()):
        registry.counter("client_retries_total",
                         layer=layer, **labels).inc(count)


def collect_world_metrics(registry: MetricsRegistry, world,
                          **labels: str) -> None:
    """Scrape a whole world: network, middleboxes, resolvers."""
    collect_network_metrics(registry, world.network, **labels)
    for box in world.all_middleboxes():
        stats = getattr(box, "stats", None)
        if stats is None:
            continue
        kind = getattr(box, "kind", "unknown")
        isp = getattr(box, "isp", "unknown")
        registry.counter("middlebox_inspected_total",
                         isp=isp, kind=kind, **labels).inc(stats.inspected)
        registry.counter("middlebox_triggers_total",
                         isp=isp, kind=kind, **labels).inc(stats.triggered)
        registry.counter("middlebox_race_misses_total",
                         isp=isp, kind=kind, **labels).inc(stats.missed_race)
        registry.counter("middlebox_fault_blind_total",
                         isp=isp, kind=kind, **labels).inc(stats.fault_blind)
        # Session-table dynamics (PR 8).  Emitted only when the feature
        # actually fired, so default (unbounded) worlds keep their
        # pre-session metrics snapshots byte-identical.
        flows = getattr(box, "flows", None)
        if stats.evicted:
            policy = getattr(flows, "eviction_policy", "unknown")
            registry.counter("middlebox_flow_evictions_total",
                             isp=isp, kind=kind, policy=policy,
                             **labels).inc(stats.evicted)
        if stats.overload_fail_open:
            registry.counter("middlebox_overload_total",
                             isp=isp, kind=kind, policy="fail-open",
                             **labels).inc(stats.overload_fail_open)
        if stats.overload_fail_closed:
            registry.counter("middlebox_overload_total",
                             isp=isp, kind=kind, policy="fail-closed",
                             **labels).inc(stats.overload_fail_closed)
        if stats.residual_hits:
            registry.counter("middlebox_residual_hits_total",
                             isp=isp, kind=kind,
                             **labels).inc(stats.residual_hits)
        if stats.truncated_flows:
            registry.counter("middlebox_truncated_flows_total",
                             isp=isp, kind=kind,
                             **labels).inc(stats.truncated_flows)
        if flows is not None and getattr(flows, "max_flows", None) is not None:
            registry.gauge("middlebox_flow_table_high_water",
                           isp=isp, kind=kind, **labels).set(flows.high_water)
    for isp, deployment in sorted(world.isps.items()):
        queries = 0
        poisoned = 0
        for service in _resolver_services(deployment):
            queries += len(service.query_log)
            poisoned += service.poisoned_answers
        if queries:
            registry.counter("dns_queries_total", isp=isp,
                             **labels).inc(queries)
        if poisoned:
            registry.counter("dns_poisoned_answers_total", isp=isp,
                             **labels).inc(poisoned)


def _resolver_services(deployment) -> Iterable:
    # ISPDeployment.resolvers is a list of (ip, ResolverService) pairs.
    for _, service in getattr(deployment, "resolvers", ()):
        if hasattr(service, "query_log"):
            yield service
