"""Simulator performance characteristics.

Not a paper artifact — these benchmarks characterize the substrate
itself (the one part of this repository where wall-clock time *is* the
result): world construction, packet-level fetch throughput, express
probe throughput, and resolver-scan throughput.  Unlike the experiment
benches these run multiple rounds for stable statistics.
"""

import statistics
import time

import pytest

from repro.core.measure import canonical_payload, express_http_probe
from repro.core.measure.fastprobe import express_dns_probe
from repro.httpsim import fetch_url
from repro.isps import build_world


@pytest.fixture(scope="module")
def perf_world():
    return build_world(seed=99, scale=0.25)


def test_world_build_small(benchmark):
    world = benchmark.pedantic(
        lambda: build_world(seed=7, scale=0.1), rounds=3, iterations=1)
    assert len(world.network.nodes) > 100


def test_packet_level_fetch_throughput(benchmark, perf_world):
    world = perf_world
    client = world.client_of("nkn")
    blocked = world.blocklists.all_blocked_domains()
    sites = [s for s in world.corpus
             if s.domain not in blocked and s.hosting == "normal"
             and not s.https][:20]
    targets = [(world.hosting.ip_for(s.domain, "in"), s.domain)
               for s in sites]

    def fetch_batch():
        ok = 0
        for ip, domain in targets:
            result = fetch_url(world.network, client, ip, domain)
            ok += bool(result.ok)
        return ok

    ok = benchmark.pedantic(fetch_batch, rounds=5, iterations=1)
    assert ok == len(targets)


def test_slot_scheduler_fetch(benchmark, perf_world):
    """Fetch throughput through the slotted calendar queue.

    Same shape as the main fetch bench but over a different site
    slice, so the trajectory carries a second fetch case."""
    world = perf_world
    client = world.client_of("mtnl")
    blocked = world.blocklists.all_blocked_domains()
    sites = [s for s in world.corpus
             if s.domain not in blocked and s.hosting == "normal"
             and not s.https][20:30]
    targets = [(world.hosting.ip_for(s.domain, "in"), s.domain)
               for s in sites]

    def fetch_batch():
        ok = 0
        for ip, domain in targets:
            result = fetch_url(world.network, client, ip, domain)
            ok += bool(result.ok)
        return ok

    ok = benchmark.pedantic(fetch_batch, rounds=5, iterations=1)
    assert ok == len(targets)


def test_population_session_throughput(benchmark):
    """Population-engine day: 50k sessions over a 100k-domain corpus.

    Tracks sessions/second through the cohort-vectorized batch path
    (Zipf draws, outcome classification, sketch updates — see
    docs/POPULATION.md).  The in-bench floor is deliberately loose for
    shared runners; the committed baseline case gives the real gate
    via perf_trajectory check."""
    from repro.population import PopulationConfig, PopulationEngine
    from repro.websites.synthetic import SyntheticCorpus

    sessions = 50_000
    corpus = SyntheticCorpus(seed=1808, size=100_000)
    config = PopulationConfig(seed=1808, corpus_size=100_000,
                              sessions=sessions)

    def run_day():
        return PopulationEngine("idea", corpus=corpus,
                                config=config).run()

    start = time.perf_counter()
    outcome = run_day()
    elapsed = time.perf_counter() - start
    assert sum(outcome.hourly) == sessions
    assert outcome.blocked_total > 0
    assert sessions / elapsed > 40_000, (
        f"population engine at {sessions / elapsed:,.0f} sessions/s "
        f"(floor 40,000)")

    outcome = benchmark.pedantic(run_day, rounds=3, iterations=1)
    assert sum(outcome.hourly) == sessions


def test_packet_pool_express(benchmark):
    """Acquire/release cycle time of the packet pool's free list.

    A microbench of the pool itself: after warm-up every acquire is a
    reuse, so this tracks the header-reset cost that replaces a full
    packet construction on the hot path."""
    from repro.netsim.packets import PacketPool, TCPFlags

    pool = PacketPool()
    payload = b"GET / HTTP/1.1\r\nHost: example.in\r\n\r\n"

    def churn():
        for _ in range(2000):
            packet = pool.acquire_tcp("10.0.0.1", "10.0.0.2", 40000, 80,
                                      seq=1, flags=TCPFlags.PSH,
                                      payload=payload)
            pool.release(packet)
        return pool.reused

    reused = benchmark.pedantic(churn, rounds=5, iterations=1)
    assert reused >= 1999  # everything past the first acquire recycles


def test_express_http_probe_throughput(benchmark, perf_world):
    world = perf_world
    client = world.client_of("idea")
    domains = world.corpus.domains()
    payloads = [(world.hosting.ip_for(d, "in"), canonical_payload(d))
                for d in domains]

    def probe_all():
        censored = 0
        for ip, payload in payloads:
            verdict = express_http_probe(world.network, client, ip, payload)
            censored += verdict.censored
        return censored

    censored = benchmark.pedantic(probe_all, rounds=3, iterations=1)
    assert censored > 0


def test_express_dns_probe_throughput(benchmark, perf_world):
    world = perf_world
    deployment = world.isp("mtnl")
    client = deployment.client
    resolver_ip = deployment.default_resolver_ip
    domains = world.corpus.domains()

    def resolve_all():
        answered = 0
        for domain in domains:
            answer = express_dns_probe(world.network, client,
                                       resolver_ip, domain)
            answered += answer.responded
        return answered

    answered = benchmark.pedantic(resolve_all, rounds=3, iterations=1)
    assert answered == len(domains)


def test_fib_speedup_express_probe(perf_world):
    """Acceptance check: the routing caches buy >=2x on path lookups.

    Times the express sweep's (client, destination) pairs through a
    warm ``path_to`` (FIB, flow-hash memo and path cache) against the
    :class:`RoutingOracle`, which recomputes every hop's equal-cost
    candidates from the topology graph, and requires identical paths.
    """
    from tests.netsim.oracles import RoutingOracle

    world = perf_world
    network = world.network
    client = world.client_of("idea")
    destinations = [world.hosting.ip_for(d, "in")
                    for d in world.corpus.domains()]
    oracle = RoutingOracle(network)

    def timed(router):
        start = time.perf_counter()
        paths = [router.path_to(client, ip) for ip in destinations]
        return time.perf_counter() - start, paths

    timed(network)  # warm the FIB and path cache
    timed(oracle)  # warm the oracle's distance maps
    fast = min((timed(network) for _ in range(3)), key=lambda r: r[0])
    slow = min((timed(oracle) for _ in range(2)), key=lambda r: r[0])
    assert fast[1] == slow[1], "cached and oracle paths diverged"
    speedup = slow[0] / fast[0]
    assert speedup >= 2.0, (
        f"routing caches only {speedup:.2f}x over the oracle "
        f"(cached {fast[0] * 1e3:.1f} ms vs oracle "
        f"{slow[0] * 1e3:.1f} ms)")


def test_trace_overhead_express_probe(perf_world):
    """Acceptance check: an attached-but-unsubscribed trace bus costs
    <5% on the express probe sweep.

    This is the cost a campaign pays for *enabled* tracing when no one
    is listening — each probe's emit site runs its two attribute tests
    (``trace is not None``, ``trace.active``) and nothing else.  The
    sweep is the same one the throughput bench times; both states are
    measured min-of-N to shave scheduler noise.
    """
    from repro.obs.trace import TraceBus

    world = perf_world
    client = world.client_of("idea")
    domains = world.corpus.domains()
    payloads = [(world.hosting.ip_for(d, "in"), canonical_payload(d))
                for d in domains]
    network = world.network

    def sweep():
        censored = 0
        for ip, payload in payloads:
            verdict = express_http_probe(network, client, ip, payload)
            censored += verdict.censored
        return censored

    def timed():
        # One sweep is ~1.5 ms — too short to resolve a 5% gate
        # against scheduler jitter; time a batch instead.
        start = time.perf_counter()
        censored = 0
        for _ in range(5):
            censored = sweep()
        return time.perf_counter() - start, censored

    sweep()  # warm caches so both states measure steady-state cost
    assert network.trace is None
    bus = TraceBus()
    # Interleave off/on rounds so clock-frequency drift and scheduler
    # noise land on both states equally; compare medians (min-of-N is
    # too sensitive to a single lucky round to resolve a 5% gate).
    off_rounds = []
    on_rounds = []
    try:
        for _ in range(9):
            network.trace = None
            off_rounds.append(timed())
            network.trace = bus
            assert not bus.active
            on_rounds.append(timed())
    finally:
        network.trace = None  # perf_world is shared
    assert off_rounds[0][1] == on_rounds[0][1], \
        "tracing changed probe verdicts"
    assert bus.emitted == 0, "unsubscribed bus delivered events"
    baseline = statistics.median(t for t, _ in off_rounds)
    traced = statistics.median(t for t, _ in on_rounds)
    overhead = traced / baseline - 1.0
    assert overhead < 0.05, (
        f"unsubscribed tracing costs {overhead * 100:.1f}% on the "
        f"express sweep (off {baseline * 1e3:.1f} ms vs on "
        f"{traced * 1e3:.1f} ms; gate is 5%)")
