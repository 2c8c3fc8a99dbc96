"""The remote artifact cache server: ``python -m repro.cachesrv``.

A deliberately small stdlib-only HTTP server storing and serving cache
entries by the engine's existing content-addressed keys, so N hosts
running sweeps need not share a filesystem:

* ``GET /artifacts/<stage>/<key>`` — the published entry body (the
  same JSON envelope the disk tier stores) plus its SHA-256 in the
  ``X-Repro-Sha256`` header; 404 on a miss.
* ``PUT /artifacts/<stage>/<key>`` — publish an entry.  The client
  sends the body's SHA-256 in ``X-Repro-Sha256``; the server recomputes
  it on receipt and refuses a mismatching upload with 422 (a truncated
  or bit-flipped body must never be published).  Publishes are atomic
  (temp file + rename) so a concurrent reader never sees a torn entry.
* ``DELETE /artifacts/<stage>/<key>`` — quarantine an entry a client
  proved corrupt (moved under ``.quarantine/``, kept for forensics).
* ``GET /healthz`` — ``{"status": "ok", "entries": N, "bytes": B}``.

Integrity is end-to-end: the digest is computed by the *writer*,
verified by the server on receipt, stored alongside the entry, served
back on every fetch and re-verified by the *reader* — a corrupt entry
is detectable no matter where the bytes rotted (wire, proxy, disk).

The server is storage, not policy: retries, timeouts, circuit breaking
and degrade-to-local all live client-side in
:class:`repro.engine.remote.RemoteCache` — a dumb server is one that
cannot take a fleet down with it.
"""

from __future__ import annotations

import json
import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple

# The client's digest and header, so both ends always agree.
from repro.engine.locks import publish_atomically
from repro.engine.remote import DIGEST_HEADER, body_digest

#: Path prefix of the entry routes.
ARTIFACTS_PREFIX = "/artifacts/"

#: Server-side quarantine directory (client-reported corruption).
QUARANTINE_DIRNAME = ".quarantine"

#: Legal stage names / keys in URLs.  The leading character must not
#: be a dot: that bans ``.``/``..`` traversal out of the store root
#: and collisions with internal dot-directories (``.quarantine``).
_SEGMENT_RE = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9_.-]{0,199}$")


class CacheStore:
    """Filesystem store behind the server: one file per entry.

    Layout mirrors the local disk tier (``<root>/<stage>/<key>.json``)
    with a ``.sha256`` digest sidecar per entry, so an operator can
    inspect (and rsync) the store with ordinary tools.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _paths(self, stage: str, key: str) -> Tuple[Path, Path]:
        entry = self.root / stage / f"{key}.json"
        return entry, entry.with_suffix(".sha256")

    def get(self, stage: str, key: str) -> Optional[Tuple[bytes, str]]:
        """``(body, digest)`` of a published entry, or None."""
        entry, sidecar = self._paths(stage, key)
        try:
            body = entry.read_bytes()
        except OSError:
            return None
        try:
            digest = sidecar.read_text(encoding="utf-8").strip()
        except OSError:
            digest = body_digest(body)
        return body, digest

    def put(self, stage: str, key: str, body: bytes, digest: str) -> None:
        """Atomically publish an entry and its digest sidecar."""
        entry, sidecar = self._paths(stage, key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            for path, data in ((sidecar, digest.encode("ascii")),
                               (entry, body)):
                publish_atomically(path, data)

    def quarantine(self, stage: str, key: str) -> bool:
        """Move a client-reported-corrupt entry aside; False = absent."""
        entry, sidecar = self._paths(stage, key)
        dest_dir = self.root / QUARANTINE_DIRNAME
        with self._lock:
            if not entry.is_file():
                return False
            try:
                dest_dir.mkdir(parents=True, exist_ok=True)
                os.replace(entry, dest_dir / f"{stage}.{key}.json")
            except OSError:
                try:
                    os.unlink(entry)
                except OSError:
                    return False
            try:
                os.unlink(sidecar)
            except OSError:
                pass
            return True

    def stats(self) -> Tuple[int, int]:
        """``(entries, bytes)`` of published artifacts."""
        entries = 0
        total = 0
        for stage_dir in self.root.iterdir() if self.root.is_dir() else ():
            if not stage_dir.is_dir() or stage_dir.name.startswith("."):
                continue
            for path in stage_dir.glob("*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return entries, total


class _Handler(BaseHTTPRequestHandler):
    """One request: parse the route, delegate to the store."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-cachesrv"

    # the store is attached to the server object by CacheServer
    @property
    def store(self) -> CacheStore:
        return self.server.store  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # response helpers
    # ------------------------------------------------------------------
    def _respond(self, status: int, body: bytes = b"",
                 digest: Optional[str] = None) -> None:
        self.send_response(status)
        if digest is not None:
            self.send_header(DIGEST_HEADER, digest)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _respond_json(self, status: int, payload: dict) -> None:
        self._respond(status, json.dumps(
            payload, sort_keys=True).encode("utf-8"))

    def _entry_route(self) -> Optional[Tuple[str, str]]:
        """``(stage, key)`` of an /artifacts route, else an error reply."""
        if not self.path.startswith(ARTIFACTS_PREFIX):
            self._respond_json(404, {"error": "unknown route",
                                     "path": self.path})
            return None
        rest = self.path[len(ARTIFACTS_PREFIX):]
        parts = rest.split("/")
        if len(parts) != 2 or not all(_SEGMENT_RE.match(p) for p in parts):
            self._respond_json(400, {"error": "bad artifact path",
                                     "path": self.path})
            return None
        return parts[0], parts[1]

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            entries, total = self.store.stats()
            self._respond_json(200, {"status": "ok", "entries": entries,
                                     "bytes": total})
            return
        route = self._entry_route()
        if route is None:
            return
        found = self.store.get(*route)
        if found is None:
            self._respond_json(404, {"error": "miss", "stage": route[0],
                                     "key": route[1]})
            return
        body, digest = found
        self._respond(200, body, digest=digest)

    def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
        route = self._entry_route()
        if route is None:
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._respond_json(400, {"error": "bad Content-Length"})
            return
        body = self.rfile.read(length) if length else b""
        claimed = (self.headers.get(DIGEST_HEADER) or "").strip().lower()
        actual = body_digest(body)
        if not claimed:
            self._respond_json(400, {"error": f"missing {DIGEST_HEADER} "
                                              f"header"})
            return
        if claimed != actual:
            # A truncated or corrupted upload must never be published.
            self._respond_json(422, {"error": "integrity mismatch",
                                     "claimed": claimed,
                                     "actual": actual})
            return
        try:
            self.store.put(*route, body=body, digest=actual)
        except OSError as exc:
            self._respond_json(507, {"error": f"store write failed: "
                                              f"{exc}"})
            return
        self._respond_json(200, {"stored": True, "bytes": len(body)})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        route = self._entry_route()
        if route is None:
            return
        removed = self.store.quarantine(*route)
        self._respond_json(200 if removed else 404,
                           {"quarantined": removed})


class CacheServer:
    """A bound cache server; ``serve_in_thread`` for tests, ``serve``
    for the CLI."""

    def __init__(self, root: os.PathLike, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False):
        self.store = CacheStore(root)
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.store = self.store  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self.httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def serve_in_thread(self) -> "CacheServer":
        """Start serving on a daemon thread (tests, chaos harness)."""
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-cachesrv",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
