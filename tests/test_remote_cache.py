"""The remote tier client: read-through, write-behind, degradation.

Every test drives a real ``CacheServer`` (or a dead endpoint) over
loopback HTTP — the fault model is only trustworthy if it survives the
actual socket layer, not a mocked transport.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cachesrv import CacheServer, body_digest
from repro.engine.cache import ArtifactCache
from repro.engine.remote import (
    REMOTE_CACHE_ENV,
    RemoteCache,
    resolve_remote_cache,
)
from repro.engine.stages import StageDef
from repro.observe import Tracer, activate
from repro.resilience.breaker import CircuitBreaker

#: An unroutable loopback endpoint (port 9 = discard; nothing listens).
DEAD_URL = "http://127.0.0.1:9"


def _stage(version=1):
    codec = dict(encode=lambda art: {"value": art["value"]},
                 decode=lambda data: {"value": data["value"]})
    return StageDef(name="toy", version=version,
                    compute=lambda payload, deps: None, **codec)


@pytest.fixture()
def server(tmp_path):
    srv = CacheServer(tmp_path / "remote-store").serve_in_thread()
    yield srv
    srv.close()


def _client(url, **kwargs):
    kwargs.setdefault("timeout", 0.5)
    kwargs.setdefault("retries", 0)
    return RemoteCache(url, **kwargs)


class TestTierComposition:
    def test_write_behind_then_read_through(self, server, tmp_path):
        stage = _stage()
        writer = ArtifactCache(cache_dir=tmp_path / "writer",
                               remote=_client(server.url))
        writer.put("k1", stage, {"value": 1.5})
        assert writer.remote.stores == 1

        # A cold local cache sharing only the remote endpoint hits it.
        reader = ArtifactCache(cache_dir=tmp_path / "reader",
                               remote=_client(server.url))
        hit, layer = reader.get("k1", stage)
        assert hit == {"value": 1.5}
        assert layer == "remote"
        assert reader.hits_remote == 1

    def test_remote_hit_replicates_to_local_disk(self, server, tmp_path):
        stage = _stage()
        ArtifactCache(cache_dir=tmp_path / "w",
                      remote=_client(server.url)).put("k1", stage,
                                                      {"value": 2.0})
        reader_dir = tmp_path / "r"
        ArtifactCache(cache_dir=reader_dir,
                      remote=_client(server.url)).get("k1", stage)
        # A FRESH instance with no remote finds the local replica.
        hit, layer = ArtifactCache(cache_dir=reader_dir).get("k1", stage)
        assert hit == {"value": 2.0}
        assert layer == "disk"

    def test_version_mismatch_is_a_miss(self, server, tmp_path):
        ArtifactCache(cache_dir=tmp_path / "w",
                      remote=_client(server.url)).put(
            "k1", _stage(version=1), {"value": 1.0})
        hit, layer = ArtifactCache(cache_dir=tmp_path / "r",
                                   remote=_client(server.url)).get(
            "k1", _stage(version=2))
        assert hit is None and layer is None

    def test_memory_only_stage_never_touches_remote(self, server,
                                                    tmp_path):
        stage = StageDef(name="toy", version=1,
                         compute=lambda payload, deps: None)  # no codec
        cache = ArtifactCache(cache_dir=tmp_path,
                              remote=_client(server.url))
        cache.put("k1", stage, {"value": 1.0})
        assert cache.remote.stores == 0


class TestDegradation:
    def test_dead_endpoint_is_a_miss_never_an_error(self, tmp_path):
        stage = _stage()
        cache = ArtifactCache(cache_dir=tmp_path,
                              remote=_client(DEAD_URL))
        cache.put("k1", stage, {"value": 1.0})  # write-behind fails quietly
        hit, layer = cache.get("k1", stage)     # local still works
        assert hit == {"value": 1.0}
        hit, layer = ArtifactCache(
            cache_dir=tmp_path / "cold", remote=_client(DEAD_URL)).get(
            "k1", stage)
        assert hit is None and layer is None

    def test_breaker_opens_and_refuses(self, tmp_path):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        remote = _client(DEAD_URL, breaker=breaker)
        for _ in range(3):
            remote.fetch("toy", "k")
        assert remote.degraded
        assert breaker.state == "open"
        refused_before = remote.refused
        remote.fetch("toy", "k")
        assert remote.refused > refused_before
        cache = ArtifactCache(cache_dir=tmp_path, remote=remote)
        assert cache.remote_degraded

    def test_breaker_reattaches_after_recovery(self, server):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=lambda: clock[0])
        remote = _client(server.url, breaker=breaker)
        # Trip it with a forced failure record, then elapse the window:
        breaker.record_failure()
        assert remote.degraded
        clock[0] += 6.0
        assert remote.healthz() is not None  # the half-open probe
        assert not remote.degraded
        assert breaker.reattached_total == 1

    def test_stats_shape(self, server, tmp_path):
        cache = ArtifactCache(cache_dir=tmp_path,
                              remote=_client(server.url))
        cache.put("k1", _stage(), {"value": 1.0})
        stats = cache.stats()
        assert stats["hits_remote"] == 0
        remote = stats["remote"]
        assert remote["stores"] == 1
        assert remote["bytes_stored"] > 0
        assert remote["degraded"] is False
        assert remote["breaker_state"] == "closed"


@pytest.fixture()
def refusing_server():
    """A stub endpoint answering GET with 403 and PUT with 409."""
    class Refusing(BaseHTTPRequestHandler):
        def _answer(self, status):
            self.send_response(status)
            self.send_header("Content-Length", "0")
            self.end_headers()

        def do_GET(self):
            self._answer(403)

        def do_PUT(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self._answer(409)

        def log_message(self, *args):
            pass

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Refusing)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestUnexpectedStatus:
    def test_non_5xx_answers_count_as_errors(self, refusing_server):
        # Below 500 a status is an answer, not a transport failure: it
        # reaches the error count without a retry or a breaker trip.
        remote = _client(refusing_server)
        tracer = Tracer()
        with activate(tracer):
            assert remote.fetch("toy", "k1") is None
            assert remote.store("toy", "k1", b"{}") is False
        assert remote.errors == 2
        assert remote.hits == remote.misses == remote.stores == 0
        assert not remote.degraded
        snapshot = tracer.metrics.snapshot()
        assert snapshot["engine.cache.remote.errors"]["value"] == 2


class TestIntegrity:
    def _poison(self, server, stage, key):
        """Corrupt the stored body at rest, sidecar digest intact."""
        entry = server.store.root / stage / f"{key}.json"
        entry.write_bytes(entry.read_bytes()[:-2] + b'?}')

    def test_corrupt_at_rest_quarantined_after_refetch(self, server,
                                                       tmp_path):
        stage = _stage()
        ArtifactCache(cache_dir=tmp_path / "w",
                      remote=_client(server.url)).put("k1", stage,
                                                      {"value": 3.0})
        self._poison(server, "toy", "k1")
        reader = ArtifactCache(cache_dir=tmp_path / "r",
                               remote=_client(server.url))
        hit, layer = reader.get("k1", stage)
        assert hit is None and layer is None
        # Both fetch attempts saw the mismatch, then the entry was
        # quarantined server-side (DELETE): gone, kept for forensics.
        assert reader.remote.integrity_failures == 2
        assert server.store.get("toy", "k1") is None
        assert list((server.store.root / ".quarantine").iterdir())

    def test_envelope_must_name_stage_and_key(self, server):
        # A well-digested body under the WRONG key must not verify —
        # digest integrity alone cannot catch a misfiled entry.
        body = json.dumps({"format": 1, "stage": "toy", "version": 1,
                           "key": "other", "artifact": {"value": 1}},
                          ).encode()
        server.store.put("toy", "k1", body, body_digest(body))
        remote = _client(server.url)
        assert remote.fetch("toy", "k1") is None
        assert remote.integrity_failures == 2


class TestResolution:
    def test_env_resolution(self, monkeypatch, server):
        monkeypatch.delenv(REMOTE_CACHE_ENV, raising=False)
        assert resolve_remote_cache() is None
        monkeypatch.setenv(REMOTE_CACHE_ENV, "")
        assert resolve_remote_cache() is None
        monkeypatch.setenv(REMOTE_CACHE_ENV, server.url)
        remote = resolve_remote_cache()
        assert isinstance(remote, RemoteCache)
        assert remote.base_url == server.url

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(REMOTE_CACHE_ENV, "http://env:1")
        assert resolve_remote_cache("http://arg:2").base_url \
            == "http://arg:2"
        ready = RemoteCache("http://ready:3", timeout=0.1, retries=0)
        assert resolve_remote_cache(ready) is ready
