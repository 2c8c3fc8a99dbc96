"""The machine-readable error taxonomy.

Every :class:`ReproError` subclass carries a stable ``code`` and a
``retryable`` flag, and renders a ``{type, code, message, retryable}``
record — the contract the service's JSON bodies and the manifest's
failure records are built on.
"""

from __future__ import annotations

from repro import errors
from repro.engine.manifest import RunManifest, TaskFailure
from repro.errors import (
    AdmissionRejected,
    CacheLockTimeout,
    DeadlineExceeded,
    InvalidRequest,
    QuotaExceeded,
    ReproError,
    RunInterrupted,
    ServeError,
    ServiceDraining,
    TaskTimeoutError,
    WorkerCrashError,
    error_code,
    error_payload,
)


def all_error_classes():
    """Every ReproError subclass defined in :mod:`repro.errors`."""
    seen = []
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return [cls for cls in seen if cls.__module__ == errors.__name__]


class TestTaxonomy:
    def test_every_class_has_a_dotted_code(self):
        for cls in all_error_classes():
            assert isinstance(cls.code, str) and "." in cls.code, cls

    def test_codes_are_unique_across_the_hierarchy(self):
        codes = [cls.code for cls in all_error_classes()]
        assert len(codes) == len(set(codes))

    def test_retryable_is_a_bool_class_attribute(self):
        for cls in all_error_classes():
            assert isinstance(cls.retryable, bool), cls

    def test_retryable_is_explicit_on_every_class(self):
        """Every class states its own ``retryable`` — a new error type
        must make the call, not silently inherit a default."""
        for cls in all_error_classes():
            assert "retryable" in cls.__dict__, (
                f"{cls.__name__} inherits retryable implicitly; "
                f"declare it explicitly")

    def test_code_is_explicit_on_every_class(self):
        for cls in all_error_classes():
            assert "code" in cls.__dict__, (
                f"{cls.__name__} inherits its code implicitly")

    def test_transient_failures_are_retryable(self):
        for cls in (TaskTimeoutError, CacheLockTimeout, RunInterrupted,
                    WorkerCrashError, AdmissionRejected, QuotaExceeded,
                    DeadlineExceeded, ServiceDraining):
            assert cls.retryable, cls

    def test_permanent_failures_are_not_retryable(self):
        for cls in (errors.ConfigError, errors.LayoutError,
                    errors.NetlistError, InvalidRequest):
            assert not cls.retryable, cls

    def test_remote_cache_family_registered(self):
        """The remote tier's fault model: every code dotted under
        ``cache.remote`` and transient by design (the tier is an
        optimisation — its failures must never fail a run)."""
        family = {
            errors.RemoteCacheError: "cache.remote.error",
            errors.RemoteCacheTimeout: "cache.remote.timeout",
            errors.RemoteCacheIntegrityError: "cache.remote.integrity",
            errors.RemoteCacheUnavailable: "cache.remote.unavailable",
        }
        for cls, code in family.items():
            assert cls.code == code
            assert cls.retryable is True
            assert issubclass(cls, errors.RemoteCacheError)

    def test_to_dict_shape(self):
        record = errors.MeshError("bad mesh").to_dict()
        assert record == {"type": "MeshError", "code": "tcad.mesh",
                          "message": "bad mesh", "retryable": False}

    def test_deadline_exceeded_carries_run_id(self):
        exc = DeadlineExceeded("too slow", run_id="req-abc")
        record = exc.to_dict()
        assert record["run_id"] == "req-abc"
        assert record["code"] == "serve.deadline_exceeded"
        assert record["retryable"] is True


class TestForeignExceptions:
    def test_error_code_namespaces_foreign_types(self):
        assert error_code(ValueError("x")) == "python.ValueError"
        assert error_code(errors.MeshError("x")) == "tcad.mesh"

    def test_error_payload_for_foreign_exception(self):
        payload = error_payload(KeyError("k"))
        assert payload["type"] == "KeyError"
        assert payload["code"] == "python.KeyError"
        assert payload["retryable"] is False

    def test_error_payload_delegates_to_repro_to_dict(self):
        exc = AdmissionRejected("full", retry_after=7)
        assert error_payload(exc) == exc.to_dict()


class TestServeErrorStatuses:
    def test_http_status_mapping(self):
        assert InvalidRequest("x").http_status == 400
        assert AdmissionRejected("x").http_status == 429
        assert QuotaExceeded("x").http_status == 429
        assert DeadlineExceeded("x").http_status == 504
        assert ServiceDraining("x").http_status == 503
        assert ServeError("x").http_status == 500

    def test_retry_after_attribute(self):
        assert AdmissionRejected("x", retry_after=12).retry_after == 12
        assert ServeError("x").retry_after is None


class TestManifestFailureRecords:
    def test_task_failure_carries_code_and_retryable(self):
        failure = TaskFailure(task_id="t", stage="s", key="k",
                              status="failed", code="engine.task_timeout",
                              retryable=True)
        assert failure.code == "engine.task_timeout"
        assert failure.retryable is True

    def test_old_manifests_without_codes_still_load(self):
        data = {"max_workers": 1, "records": [],
                "failures": [{"task_id": "t", "stage": "s", "key": "k",
                              "status": "failed"}]}
        manifest = RunManifest.from_dict(data)
        assert manifest.failures[0].code == ""
        assert manifest.failures[0].retryable is False

    def test_roundtrip_preserves_codes(self):
        manifest = RunManifest(max_workers=1)
        manifest.add_failure(TaskFailure(
            task_id="t", stage="s", key="k", status="failed",
            code="cache.lock_timeout", retryable=True))
        reloaded = RunManifest.from_dict(manifest.to_dict())
        assert reloaded.failures[0].code == "cache.lock_timeout"
        assert reloaded.failures[0].retryable is True


def test_engine_records_codes_on_task_failures():
    """A failing run's manifest failures carry the taxonomy fields."""
    from repro.engine import Engine, Task, register_stage, unregister_stage

    def _boom(payload, deps):
        raise errors.MeshError("no mesh")

    def _timeout(payload, deps):
        raise errors.TaskTimeoutError("too slow")

    register_stage("taxonomy_fail", compute=_boom, replace=True)
    register_stage("taxonomy_slow", compute=_timeout,
                   replace=True)
    try:
        run = Engine().run(
            [Task(id="boom", stage="taxonomy_fail"),
             Task(id="slow", stage="taxonomy_slow"),
             Task(id="child", stage="taxonomy_fail", deps=("boom",))],
            on_error="continue")
        assert run.failed["boom"].code == "tcad.mesh"
        assert run.failed["boom"].retryable is False
        assert run.failed["slow"].code == "engine.task_timeout"
        assert run.failed["slow"].retryable is True
        assert run.skipped["child"].code == "engine.task_skipped"
        assert run.skipped["child"].retryable is True
    finally:
        unregister_stage("taxonomy_fail")
        unregister_stage("taxonomy_slow")
