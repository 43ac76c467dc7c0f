"""Tests for the chaos trigger spec and the self-SIGKILL hook."""

import multiprocessing
import signal

import pytest

from repro.errors import ConfigurationError
from repro.fabric import chaos


class TestParseSpec:
    def test_bare_point(self):
        assert chaos.parse_spec("run") == [("run", 1, None)]

    def test_nth(self):
        assert chaos.parse_spec("complete-pre-rename:3") == [
            ("complete-pre-rename", 3, None)]

    def test_worker_filter(self):
        assert chaos.parse_spec("run@2") == [("run", 1, 2)]

    def test_nth_and_worker_either_order(self):
        assert chaos.parse_spec("complete@1:3") == [("complete", 3, 1)]
        assert chaos.parse_spec("complete:3@1") == [("complete", 3, 1)]

    def test_multiple_triggers(self):
        assert chaos.parse_spec("run@0, complete@1") == [
            ("run", 1, 0), ("complete", 1, 1)]

    def test_empty_tokens_skipped(self):
        assert chaos.parse_spec(" , run, ") == [("run", 1, None)]

    @pytest.mark.parametrize("spec", [
        "explode", "run:zero", "run@x", "run:0",
        "claim", "renew",  # points of the old lease protocol
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            chaos.parse_spec(spec)


def _chaos_victim(point, env_value):
    import os
    os.environ[chaos.ENV_VAR] = env_value
    chaos._hits.clear()
    chaos.chaos_point(point, worker_index=0)
    chaos.chaos_point(point, worker_index=0)


class TestChaosPoint:
    def test_unset_env_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        chaos.chaos_point("run", 0)  # must not raise or die

    def test_non_matching_worker_survives(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, "run@7")
        chaos._hits.clear()
        chaos.chaos_point("run", worker_index=0)  # filter excludes us

    def test_matching_trigger_sigkills_the_process(self):
        # SIGKILL cannot be caught, so the death must happen in a
        # sacrificial child process.
        context = multiprocessing.get_context("spawn")
        proc = context.Process(target=_chaos_victim, args=("run", "run:2"))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL
