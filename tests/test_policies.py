"""Tests for the load-balancing policy layer (paper future-work demo)."""

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20
from repro.migration import Cluster, ETHERNET_100M
from repro.migration.policies import LoadBalancer
from repro.migration.transport import Channel, FaultPlan, FaultyChannel
from repro.vm.process import Process
from repro.vm.program import compile_program

WORKER = """
int main() {
    int i; long acc = 0;
    for (i = 0; i < 600; i++) {
        migrate_here();
        acc = acc * 7 + i;
    }
    printf("%d", (int) acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def prog():
    return compile_program(WORKER, poll_strategy="user")


@pytest.fixture(scope="module")
def expected(prog):
    p = Process(prog, DEC5000)
    p.run_to_completion()
    return p.stdout


def make_cluster():
    cluster = Cluster()
    a = cluster.add_host("hot", DEC5000)
    b = cluster.add_host("cold", SPARC20)
    c = cluster.add_host("spare", ALPHA)
    cluster.connect(a, b, ETHERNET_100M)
    cluster.connect(a, c, ETHERNET_100M)
    cluster.connect(b, c, ETHERNET_100M)
    return cluster, a, b, c


class TestLoadBalancer:
    def test_all_on_one_host_spreads_out(self, prog, expected):
        cluster, hot, cold, spare = make_cluster()
        balancer = LoadBalancer(cluster, quantum=2000)
        for i in range(6):
            balancer.submit(prog, hot, name=f"w{i}")
        result = balancer.run()
        assert len(result.finished) == 6
        for proc in result.finished:
            assert proc.stdout == expected
        # rebalancing actually happened, away from the hot host
        assert result.migrations
        assert all(src == "hot" or src in ("cold", "spare")
                   for src, _ in result.host_history())
        assert any(src == "hot" for src, _ in result.host_history())

    def test_balanced_population_never_migrates(self, prog, expected):
        cluster, a, b, c = make_cluster()
        balancer = LoadBalancer(cluster, quantum=2000)
        balancer.submit(prog, a)
        balancer.submit(prog, b)
        balancer.submit(prog, c)
        result = balancer.run()
        assert not result.migrations
        assert all(p.stdout == expected for p in result.finished)

    def test_loads_tracked(self, prog):
        cluster, a, b, _c = make_cluster()
        balancer = LoadBalancer(cluster)
        balancer.submit(prog, a)
        balancer.submit(prog, a)
        assert balancer.load_of(a) == 2
        assert balancer.load_of(b) == 0

    def test_single_host_cluster_runs_without_policy(self, prog, expected):
        cluster = Cluster()
        only = cluster.add_host("only", DEC5000)
        balancer = LoadBalancer(cluster, quantum=5000)
        balancer.submit(prog, only)
        balancer.submit(prog, only)
        result = balancer.run()
        assert not result.migrations
        assert len(result.finished) == 2

    def test_threshold_validation(self, prog):
        cluster, *_ = make_cluster()
        with pytest.raises(ValueError):
            LoadBalancer(cluster, imbalance_threshold=0)

    def test_epoch_cap(self, prog):
        cluster, a, *_ = make_cluster()
        balancer = LoadBalancer(cluster, quantum=10)
        balancer.submit(prog, a)
        with pytest.raises(RuntimeError, match="max_epochs"):
            balancer.run(max_epochs=3)


class TestBalancerFaultContainment:
    """A MigrationError during rebalancing must not crash the balancer or
    lose the process: it stays on its source host, keeps running, and the
    failed attempt is recorded."""

    def test_broken_links_never_lose_processes(self, prog, expected):
        cluster, hot, _cold, _spare = make_cluster()
        # every rebalance channel persistently disconnects: no migration
        # can ever succeed
        balancer = LoadBalancer(
            cluster,
            quantum=2000,
            channel_factory=lambda link: FaultyChannel(
                Channel(link), FaultPlan.parse("disconnect@0!")
            ),
        )
        for i in range(6):
            balancer.submit(prog, hot, name=f"w{i}")
        result = balancer.run()
        # every process still finished — on the hot host — with the
        # right output
        assert len(result.finished) == 6
        assert all(p.stdout == expected for p in result.finished)
        assert not result.migrations
        # and the defeated attempts were recorded, source == dest-stays-put
        assert result.failed
        for failure in result.failed:
            assert failure.source == "hot"
            assert failure.dest in ("cold", "spare")
            assert failure.process_name.startswith("w")

    def test_transient_faults_cured_by_balancer_retry_policy(self, prog, expected):
        cluster, hot, _cold, _spare = make_cluster()
        plan = FaultPlan.parse("drop@0")  # one transient fault, then clean
        balancer = LoadBalancer(
            cluster,
            quantum=2000,
            max_attempts=3,
            channel_factory=lambda link: FaultyChannel(Channel(link), plan),
        )
        for i in range(6):
            balancer.submit(prog, hot, name=f"w{i}")
        result = balancer.run()
        assert len(result.finished) == 6
        assert all(p.stdout == expected for p in result.finished)
        # the drop cost one retry but no migration was abandoned
        assert result.migrations and not result.failed
        assert any(m.retries == 1 for m in result.migrations)

    def test_failed_attempt_leaves_process_migratable_later(self, prog, expected):
        """After a failure the process is not poisoned: a later epoch can
        still pick it and move it over a (now healthy) link."""
        cluster, hot, _cold, _spare = make_cluster()
        plan = FaultPlan.parse("drop@0,drop@0")  # first two attempts fail
        balancer = LoadBalancer(
            cluster,
            quantum=2000,
            channel_factory=lambda link: FaultyChannel(Channel(link), plan),
        )
        for i in range(6):
            balancer.submit(prog, hot, name=f"w{i}")
        result = balancer.run()
        assert len(result.finished) == 6
        assert all(p.stdout == expected for p in result.finished)
        # two single-shot attempts died on the transient drops, then the
        # plan ran dry and later rebalances went through
        assert len(result.failed) == 2
        assert result.migrations
