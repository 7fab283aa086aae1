"""Property: the FIB fast path is plain ECMP routing, byte for byte.

For random topologies and address pairs, cached ``next_hop`` /
``path_to`` must return exactly what the :class:`RoutingOracle`
computes from the topology graph — including after ``add_node`` /
``link`` invalidation and with a fault plan installed (faults drop
packets on links; they never change routing).
"""

from hypothesis import given, settings, strategies as st

from repro.netsim import Network
from repro.netsim.errors import RoutingError
from repro.netsim.faults import FaultPlan

from .oracles import RoutingOracle

#: A few distinct delays so equal-cost sets are common but not total.
DELAYS = (0.001, 0.005, 0.02)


@st.composite
def topology_specs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    host_flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    chain_delays = draw(st.lists(st.sampled_from(DELAYS),
                                 min_size=n - 1, max_size=n - 1))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from(DELAYS)),
        max_size=10))
    return n, host_flags, chain_delays, extra


def build(spec) -> Network:
    n, host_flags, chain_delays, extra = spec
    net = Network()
    for i in range(n):
        if host_flags[i]:
            net.add_host(f"n{i}", f"10.0.{i}.1")
        else:
            net.add_router(f"n{i}", f"10.0.{i}.1")
    # A spanning chain keeps everything connected; extra links create
    # the equal-cost diversity ECMP actually exercises.
    for i in range(n - 1):
        net.link(f"n{i}", f"n{i + 1}", delay=chain_delays[i])
    for a, b, delay in extra:
        if a != b and not net.graph.has_edge(f"n{a}", f"n{b}"):
            net.link(f"n{a}", f"n{b}", delay=delay)
    return net


def _path(router, node, dst_ip):
    try:
        return router.path_to(node, dst_ip)
    except RoutingError as exc:
        return ("error", str(exc))


def assert_routing_equivalent(net: Network) -> None:
    oracle = RoutingOracle(net)
    addresses = list(net.ip_owner)
    src_ips = [None] + addresses[:2]
    for name in net.nodes:
        node = net.nodes[name]
        for dst_ip in addresses:
            for src_ip in src_ips:
                fast = net.next_hop(node, dst_ip, src_ip)
                slow = oracle.next_hop(node, dst_ip, src_ip)
                assert fast is slow, (
                    f"next_hop({name}, {dst_ip}, {src_ip}): "
                    f"fib={fast} oracle={slow}")
            # Twice: the second call exercises the cache-hit path.
            assert _path(net, node, dst_ip) == _path(net, node, dst_ip) \
                == _path(oracle, node, dst_ip)


class TestFIBEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(topology_specs())
    def test_matches_seed_implementation(self, spec):
        net = build(spec)
        assert_routing_equivalent(net)

    @settings(max_examples=15, deadline=None)
    @given(topology_specs(), st.integers(0, 7), st.sampled_from(DELAYS))
    def test_matches_after_invalidation(self, spec, attach_at, delay):
        net = build(spec)
        assert_routing_equivalent(net)  # warm every cache first
        n = spec[0]
        net.add_host("late", "10.9.0.1")
        net.link("late", f"n{attach_at % n}", delay=delay)
        assert_routing_equivalent(net)

    @settings(max_examples=10, deadline=None)
    @given(topology_specs(), st.integers(1, 1000))
    def test_matches_under_fault_plan(self, spec, fault_seed):
        net = build(spec)
        net.install_faults(FaultPlan.uniform_loss(0.3, seed=fault_seed))
        assert_routing_equivalent(net)
