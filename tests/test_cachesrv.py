"""The remote cache server: storage, integrity gate, quarantine.

``repro.cachesrv`` is deliberately dumb — it stores bodies under
``(stage, key)``, remembers the digest each body was published with,
and refuses publishes whose claimed digest does not match the bytes.
All retry/breaker/verification *policy* lives in the client
(:mod:`repro.engine.remote`); these tests pin the server's storage
contract the client's fault model is built on.
"""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.cachesrv import (
    DIGEST_HEADER,
    QUARANTINE_DIRNAME,
    CacheServer,
    CacheStore,
    body_digest,
)


@pytest.fixture()
def server(tmp_path):
    srv = CacheServer(tmp_path / "store").serve_in_thread()
    yield srv
    srv.close()


def _request(url, method="GET", body=None, headers=None):
    request = urllib.request.Request(url, data=body, method=method,
                                     headers=dict(headers or {}))
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, response.read(), dict(
                response.headers.items())
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers.items())


def _put(server, stage, key, body):
    return _request(f"{server.url}/artifacts/{stage}/{key}", "PUT",
                    body=body, headers={DIGEST_HEADER: body_digest(body)})


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = CacheStore(tmp_path)
        body = b'{"artifact": 1}'
        store.put("tcad", "abc123", body, body_digest(body))
        got = store.get("tcad", "abc123")
        assert got == (body, body_digest(body))

    def test_miss_is_none(self, tmp_path):
        assert CacheStore(tmp_path).get("tcad", "nope") is None

    def test_quarantine_moves_entry_aside(self, tmp_path):
        store = CacheStore(tmp_path)
        body = b"payload"
        store.put("tcad", "abc", body, body_digest(body))
        assert store.quarantine("tcad", "abc") is True
        assert store.get("tcad", "abc") is None
        quarantined = list((tmp_path / QUARANTINE_DIRNAME).iterdir())
        assert len(quarantined) == 1
        assert not store.quarantine("tcad", "abc")  # already gone

    def test_stats_skip_quarantine(self, tmp_path):
        store = CacheStore(tmp_path)
        for key in ("k1", "k2"):
            store.put("s", key, b"12345", body_digest(b"12345"))
        store.quarantine("s", "k1")
        entries, size = store.stats()
        assert entries == 1
        assert size == 5


class TestHTTP:
    def test_put_get_roundtrip(self, server):
        body = json.dumps({"stage": "s", "key": "k",
                           "artifact": {"v": 1}}).encode()
        status, reply, _ = _put(server, "s", "k", body)
        assert status == 200
        assert json.loads(reply)["stored"] is True
        status, got, headers = _request(f"{server.url}/artifacts/s/k")
        assert status == 200
        assert got == body
        assert headers[DIGEST_HEADER] == body_digest(body)

    def test_get_miss_is_404(self, server):
        status, _, _ = _request(f"{server.url}/artifacts/s/missing")
        assert status == 404

    def test_put_without_digest_is_400(self, server):
        status, _, _ = _request(f"{server.url}/artifacts/s/k", "PUT",
                                body=b"data")
        assert status == 400

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_put_with_bad_content_length_is_400(self, server, length):
        host, port = server.url.split("//", 1)[1].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
        try:
            conn.putrequest("PUT", "/artifacts/s/k")
            conn.putheader("Content-Length", length)
            conn.putheader(DIGEST_HEADER, body_digest(b""))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read()) == {
                "error": "bad Content-Length"}
        finally:
            conn.close()

    def test_put_with_wrong_digest_is_422(self, server):
        status, _, _ = _request(
            f"{server.url}/artifacts/s/k", "PUT", body=b"data",
            headers={DIGEST_HEADER: body_digest(b"other")})
        assert status == 422
        # the lying publish must not have landed
        status, _, _ = _request(f"{server.url}/artifacts/s/k")
        assert status == 404

    def test_delete_quarantines(self, server):
        _put(server, "s", "k", b"entry")
        status, reply, _ = _request(f"{server.url}/artifacts/s/k",
                                    "DELETE")
        assert status == 200
        assert json.loads(reply)["quarantined"] is True
        status, _, _ = _request(f"{server.url}/artifacts/s/k")
        assert status == 404
        status, reply, _ = _request(f"{server.url}/artifacts/s/k",
                                    "DELETE")
        assert status == 404

    @pytest.mark.parametrize("path", [
        "/artifacts/../k",             # traversal out of the root
        "/artifacts/.quarantine/k",    # internal dot-directory
        "/artifacts/s",                # no key
        "/artifacts/s/k/extra",        # too deep
        "/artifacts/bad*stage/k",
    ])
    def test_malformed_artifact_paths_are_400(self, server, path):
        for method in ("GET", "PUT", "DELETE"):
            status, _, _ = _request(server.url + path, method,
                                    body=b"" if method == "PUT" else None)
            assert status == 400, (method, path)

    def test_unknown_route_is_404(self, server):
        status, _, _ = _request(f"{server.url}/other")
        assert status == 404

    def test_healthz_reports_inventory(self, server):
        _put(server, "s", "k", b"12345")
        status, reply, _ = _request(f"{server.url}/healthz")
        assert status == 200
        health = json.loads(reply)
        assert health["status"] == "ok"
        assert health["entries"] == 1
        assert health["bytes"] == 5
