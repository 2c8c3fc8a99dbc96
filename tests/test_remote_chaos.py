"""Wire-level chaos: the proxy's five faults against the real client.

Each fault targets one layer of the client's defence:

* ``drop``/``delay`` — budgets and retries (the run must not hang);
* ``truncate`` — the short-read detector in the HTTP layer;
* ``corrupt`` — the digest check (length-preserving bit flips);
* ``error500`` — breaker trips on bursts.

The closing test is the contract the whole tier exists for: a flow
run through heavy chaos produces byte-identical artifacts to a clean
run — the network can only make things slower, never wrong.
"""

import pytest

from repro.cachesrv import CacheServer
from repro.engine.cache import ArtifactCache
from repro.engine.remote import RemoteCache
from repro.engine.stages import StageDef
from repro.errors import ConfigError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.netchaos import FAULT_KINDS, ChaosProxy, NetFaultPlan


def _stage():
    codec = dict(encode=lambda art: {"value": art["value"]},
                 decode=lambda data: {"value": data["value"]})
    return StageDef(name="toy",
                    compute=lambda payload, deps: None, **codec)


@pytest.fixture()
def server(tmp_path):
    srv = CacheServer(tmp_path / "remote-store").serve_in_thread()
    yield srv
    srv.close()


def _proxy(server, **plan_kwargs):
    plan = NetFaultPlan(**plan_kwargs)
    return ChaosProxy(server.url, plan).serve_in_thread()


class TestFaultPlan:
    def test_parse_spec(self):
        plan = NetFaultPlan.parse("drop=0.2, corrupt=0.1, seed=7")
        assert plan.probabilities["drop"] == 0.2
        assert plan.probabilities["corrupt"] == 0.1
        assert plan.probabilities["error500"] == 0.0
        assert plan.seed == 7

    @pytest.mark.parametrize("spec", [
        "drop=1.5",           # not a probability
        "drop",               # no value
        "explode=0.5",        # unknown fault
        "delay_s=0",          # must be positive
    ])
    def test_bad_specs_fail_loudly(self, spec):
        with pytest.raises(ConfigError):
            NetFaultPlan.parse(spec)

    def test_draws_are_deterministic_given_seed(self):
        kwargs = dict(drop=0.3, corrupt=0.3, error500=0.2)
        plan_a = NetFaultPlan(seed=42, **kwargs)
        plan_b = NetFaultPlan(seed=42, **kwargs)
        draws_a = [plan_a.draw() for _ in range(50)]
        draws_b = [plan_b.draw() for _ in range(50)]
        assert draws_a == draws_b  # same seed, same traffic → same faults
        assert any(kind in draws_a for kind in FAULT_KINDS)
        plan_c = NetFaultPlan(seed=43, **kwargs)
        assert [plan_c.draw() for _ in range(50)] != draws_a


class TestFaultsAgainstClient:
    def _remote(self, proxy, **kwargs):
        kwargs.setdefault("timeout", 0.5)
        kwargs.setdefault("retries", 3)
        kwargs.setdefault("breaker",
                          CircuitBreaker(failure_threshold=50,
                                         reset_timeout=0.1))
        return RemoteCache(proxy.url, **kwargs)

    def test_corrupt_wire_bytes_are_refetched(self, server):
        # corrupt=1.0: EVERY response is bit-flipped, so both the
        # fetch and its clean refetch fail verification and the client
        # reports a miss — never a mangled artifact.
        ArtifactCache(cache_dir=server.store.root.parent / "w",
                      remote=RemoteCache(server.url, timeout=0.5,
                                         retries=0)).put(
            "k1", _stage(), {"value": 4.2})
        proxy = _proxy(server, corrupt=1.0, seed=1)
        try:
            remote = self._remote(proxy)
            assert remote.fetch("toy", "k1") is None
            assert remote.integrity_failures == 2
        finally:
            proxy.close()
        # Two consecutive mismatches condemn the entry: the client
        # cannot tell persistent wire corruption from rot at rest, so
        # it quarantines server-side — a deliberate trade of one good
        # entry for never parsing a poisoned one.
        assert server.store.get("toy", "k1") is None
        assert list((server.store.root / ".quarantine").iterdir())

    def test_truncated_body_is_detected_not_parsed(self, server):
        ArtifactCache(cache_dir=server.store.root.parent / "w",
                      remote=RemoteCache(server.url, timeout=0.5,
                                         retries=0)).put(
            "k1", _stage(), {"value": 1.0})
        proxy = _proxy(server, truncate=1.0, seed=2)
        try:
            remote = self._remote(proxy, retries=1)
            assert remote.fetch("toy", "k1") is None
            assert remote.hits == 0
        finally:
            proxy.close()

    def test_error500_burst_trips_breaker(self, server):
        proxy = _proxy(server, error500=1.0, seed=3)
        try:
            breaker = CircuitBreaker(failure_threshold=3,
                                     reset_timeout=60.0)
            remote = self._remote(proxy, retries=0, breaker=breaker)
            for _ in range(4):
                remote.fetch("toy", "k")
            assert breaker.state == "open"
            assert remote.degraded
            assert remote.refused >= 1
        finally:
            proxy.close()

    def test_drop_costs_a_retry_not_a_hang(self, server):
        proxy = _proxy(server, drop=1.0, seed=4)
        try:
            remote = self._remote(proxy, retries=1)
            assert remote.fetch("toy", "k") is None
            assert remote.errors == 1
        finally:
            proxy.close()

    def test_mixed_chaos_flow_stays_correct(self, server, tmp_path):
        """Heavy chaos: every artifact read back equals what was put."""
        stage = _stage()
        direct = ArtifactCache(
            cache_dir=tmp_path / "seed",
            remote=RemoteCache(server.url, timeout=0.5, retries=0))
        expected = {}
        for i in range(12):
            expected[f"k{i}"] = {"value": float(i)}
            direct.put(f"k{i}", stage, expected[f"k{i}"])
        assert direct.remote.stores == 12

        proxy = _proxy(server, drop=0.15, truncate=0.15, corrupt=0.15,
                       error500=0.15, seed=20260808)
        try:
            reader = ArtifactCache(cache_dir=tmp_path / "cold",
                                   remote=self._remote(proxy))
            for key, want in expected.items():
                hit, layer = reader.get(key, stage)
                # chaos may turn a hit into a miss — never into a
                # wrong value
                assert hit is None or hit == want, key
            assert reader.hits_remote >= 1
        finally:
            proxy.close()
