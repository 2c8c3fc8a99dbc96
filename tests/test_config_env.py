"""Validated environment/parameter resolution (:mod:`repro.config`).

The regression this guards: ``REPRO_LOCK_TIMEOUT=nan`` used to pass
``float()`` *and* the ``<= 0`` check (NaN compares false to
everything), turning the flock wait-loop deadline into
``now + nan`` — a loop that never times out.  Every timing knob now
rejects zero, negative, non-numeric, NaN and infinite values with a
clear :class:`ConfigError` at resolution time, for environment values
and explicit arguments alike.
"""

from __future__ import annotations

import pytest

from repro.config import (
    require_finite_float,
    require_int,
    resolve_float,
    resolve_int,
)
from repro.engine.durability import (
    DEFAULT_SHUTDOWN_GRACE,
    SHUTDOWN_GRACE_ENV,
    resolve_shutdown_grace,
)
from repro.engine.locks import (
    DEFAULT_LOCK_TIMEOUT,
    LOCK_TIMEOUT_ENV,
    resolve_lock_timeout,
)
from repro.errors import ConfigError, ReproError
from repro.serve.config import (
    DEADLINE_ENV,
    QUEUE_ENV,
    TENANT_RPS_ENV,
    WORKERS_ENV,
    ServeConfig,
)


class TestRequireFiniteFloat:
    def test_accepts_numbers_and_numeric_strings(self):
        assert require_finite_float("x", 1.5) == 1.5
        assert require_finite_float("x", "2.5") == 2.5
        assert require_finite_float("x", 3) == 3.0

    @pytest.mark.parametrize("bad", ["soon", "", None, "1.2.3", [1]])
    def test_rejects_non_numeric(self, bad):
        with pytest.raises(ConfigError, match="must be a number"):
            require_finite_float("KNOB", bad)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf",
                                     float("nan"), float("inf")])
    def test_rejects_nan_and_inf(self, bad):
        with pytest.raises(ConfigError, match="must be finite"):
            require_finite_float("KNOB", bad)

    @pytest.mark.parametrize("bad", [0, -1, "0", "-0.5"])
    def test_positive_rejects_zero_and_negative(self, bad):
        with pytest.raises(ConfigError, match="must be positive"):
            require_finite_float("KNOB", bad, positive=True)

    def test_minimum_bound(self):
        assert require_finite_float("x", 0, minimum=0.0) == 0.0
        with pytest.raises(ConfigError, match="must be >= 0"):
            require_finite_float("KNOB", -0.1, minimum=0.0)

    def test_error_names_the_knob(self):
        with pytest.raises(ConfigError, match="KNOB"):
            require_finite_float("KNOB", "nope")


class TestRequireInt:
    def test_accepts_ints_and_strings(self):
        assert require_int("x", 4) == 4
        assert require_int("x", "8") == 8

    def test_rejects_bool(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            require_int("KNOB", True)

    @pytest.mark.parametrize("bad", ["2.5", "many", None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ConfigError, match="must be an integer"):
            require_int("KNOB", bad)

    def test_positive(self):
        with pytest.raises(ConfigError, match="must be positive"):
            require_int("KNOB", 0, positive=True)


class TestResolvePrecedence:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "10")
        assert resolve_float("REPRO_TEST_KNOB", 1.0, 5.0) == 5.0
        assert resolve_int("REPRO_TEST_KNOB", 1, 7) == 7

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "10")
        assert resolve_float("REPRO_TEST_KNOB", 1.0) == 10.0

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert resolve_float("REPRO_TEST_KNOB", 1.5) == 1.5

    def test_explicit_is_validated_too(self):
        with pytest.raises(ConfigError):
            resolve_float("REPRO_TEST_KNOB", 1.0, float("nan"))


class TestTimingKnobs:
    """The library's real knobs reject unusable values at startup."""

    @pytest.mark.parametrize("resolver,env,default", [
        (resolve_lock_timeout, LOCK_TIMEOUT_ENV, DEFAULT_LOCK_TIMEOUT),
    ])
    @pytest.mark.parametrize("bad", ["0", "-3", "nan", "inf", "soon"])
    def test_positive_knobs_reject_bad_env(self, monkeypatch, resolver,
                                           env, default, bad):
        monkeypatch.setenv(env, bad)
        with pytest.raises(ReproError, match=env):
            resolver()

    @pytest.mark.parametrize("resolver,env,default", [
        (resolve_lock_timeout, LOCK_TIMEOUT_ENV, DEFAULT_LOCK_TIMEOUT),
        (resolve_shutdown_grace, SHUTDOWN_GRACE_ENV,
         DEFAULT_SHUTDOWN_GRACE),
    ])
    def test_knobs_default_and_env(self, monkeypatch, resolver, env,
                                   default):
        monkeypatch.delenv(env, raising=False)
        assert resolver() == default
        monkeypatch.setenv(env, "12.5")
        assert resolver() == 12.5

    def test_explicit_arguments_are_validated(self):
        with pytest.raises(ReproError):
            resolve_lock_timeout(float("nan"))
        with pytest.raises(ReproError):
            resolve_lock_timeout(-1)

    def test_shutdown_grace_allows_zero_but_not_negative(self,
                                                         monkeypatch):
        monkeypatch.delenv(SHUTDOWN_GRACE_ENV, raising=False)
        assert resolve_shutdown_grace(0) == 0.0
        with pytest.raises(ReproError, match=SHUTDOWN_GRACE_ENV):
            resolve_shutdown_grace(-1)
        monkeypatch.setenv(SHUTDOWN_GRACE_ENV, "nan")
        with pytest.raises(ReproError, match=SHUTDOWN_GRACE_ENV):
            resolve_shutdown_grace()


class TestEngineKnobs:
    """Engine/cache knobs migrated onto the validated resolvers: a
    malformed value fails at startup with a ConfigError naming the
    variable, never half-works."""

    @pytest.mark.parametrize("env_name,bad", [
        ("REPRO_REMOTE_TIMEOUT", "0"),
        ("REPRO_REMOTE_TIMEOUT", "nan"),
        ("REPRO_REMOTE_RETRIES", "-1"),
        ("REPRO_REMOTE_RETRIES", "2.5"),
        ("REPRO_REMOTE_BREAKER_THRESHOLD", "0"),
        ("REPRO_REMOTE_BREAKER_RESET", "-3"),
    ])
    def test_remote_knobs_fail_at_construction(self, monkeypatch,
                                               env_name, bad):
        from repro.engine.remote import RemoteCache
        monkeypatch.setenv(env_name, bad)
        with pytest.raises(ConfigError, match=env_name):
            RemoteCache("http://127.0.0.1:9")


class TestServeConfig:
    def test_defaults(self, tmp_path, monkeypatch):
        for env in (QUEUE_ENV, WORKERS_ENV, TENANT_RPS_ENV,
                    DEADLINE_ENV):
            monkeypatch.delenv(env, raising=False)
        config = ServeConfig.from_env(cache_dir=tmp_path)
        assert config.queue_limit == 16
        assert config.workers == 2
        assert config.tenant_rps == 5.0
        assert config.default_deadline == 0.0
        assert config.tenants_root().endswith("tenants")

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv(QUEUE_ENV, "4")
        monkeypatch.setenv(TENANT_RPS_ENV, "0.5")
        config = ServeConfig.from_env(cache_dir=tmp_path)
        assert config.queue_limit == 4
        assert config.tenant_rps == 0.5

    @pytest.mark.parametrize("env,bad", [
        (QUEUE_ENV, "0"), (QUEUE_ENV, "lots"), (WORKERS_ENV, "-1"),
        (TENANT_RPS_ENV, "nan"), (DEADLINE_ENV, "-5"),
    ])
    def test_bad_env_fails_at_startup(self, tmp_path, monkeypatch, env,
                                      bad):
        monkeypatch.setenv(env, bad)
        with pytest.raises(ConfigError, match=env):
            ServeConfig.from_env(cache_dir=tmp_path)

    def test_requires_a_cache_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        with pytest.raises(ConfigError, match="REPRO_CACHE_DIR"):
            ServeConfig.from_env()
