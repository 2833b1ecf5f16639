"""CampaignRunner shard failures: retries, journaling, timeouts, payloads."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.campaign import CampaignError, CampaignJournal, CampaignRunner, CampaignSpec
from repro.campaign import executor as executor_mod
from repro.campaign.executor import ShardTimeout


def _campaign(**kwargs):
    return CampaignSpec("fig07", n_topologies=4, shard_size=2, seed=1, **kwargs)


def _runner(tmp_path, name="camp", **kwargs):
    kwargs.setdefault("progress", False)
    return CampaignRunner(campaign_dir=tmp_path / name, **kwargs)


def _events(runner, kind):
    journal = CampaignJournal(runner.campaign_dir / "journal.jsonl")
    return [e for e in journal.events() if e["event"] == kind]


def _failing_worker(monkeypatch, failures=None, exc=RuntimeError("boom")):
    """Make the first ``failures`` shard attempts raise ``exc`` (all of
    them when ``failures`` is None); later attempts run the real worker."""
    original = executor_mod._shard_worker
    left = {"n": failures}

    def worker(payload):
        if left["n"] is None or left["n"] > 0:
            if left["n"] is not None:
                left["n"] -= 1
            raise exc
        return original(payload)

    monkeypatch.setattr(executor_mod, "_shard_worker", worker)


class TestInlineFailures:
    def test_exhausted_retries_raise_campaign_error(self, tmp_path, monkeypatch):
        _failing_worker(monkeypatch)
        runner = _runner(tmp_path, retries=1)
        first = _campaign().shards()[0]
        with pytest.raises(CampaignError, match=r"failed after 2 attempt\(s\): boom") as info:
            runner.run(_campaign())
        assert first.key in str(info.value)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_each_failed_attempt_is_journaled(self, tmp_path, monkeypatch):
        _failing_worker(monkeypatch)
        runner = _runner(tmp_path, retries=2)
        with pytest.raises(CampaignError):
            runner.run(_campaign())
        retries = _events(runner, "shard_retry")
        first = _campaign().shards()[0]
        assert [e["attempt"] for e in retries] == [1, 2, 3]
        assert {e["shard"] for e in retries} == {first.key}
        assert {e["error"] for e in retries} == {"RuntimeError: boom"}
        assert _events(runner, "shard_done") == []

    def test_zero_retries_fail_on_first_error(self, tmp_path, monkeypatch):
        _failing_worker(monkeypatch)
        runner = _runner(tmp_path, retries=0)
        with pytest.raises(CampaignError, match=r"after 1 attempt\(s\)"):
            runner.run(_campaign())
        assert len(_events(runner, "shard_retry")) == 1

    def test_recovered_shard_matches_clean_run(self, tmp_path, monkeypatch):
        clean = _runner(tmp_path, "clean").run(_campaign())
        _failing_worker(monkeypatch, failures=1)
        runner = _runner(tmp_path, "flaky", retries=1)
        recovered = runner.run(_campaign())
        assert recovered.aggregates_equal(clean)
        journal = CampaignJournal(runner.campaign_dir / "journal.jsonl")
        kinds = [e["event"] for e in journal.events()]
        assert kinds.index("shard_retry") < kinds.index("shard_done")
        assert len(_events(runner, "shard_done")) == len(_campaign().shards())

    def test_failures_counted_in_telemetry(self, tmp_path, monkeypatch):
        _failing_worker(monkeypatch)
        telemetry = obs.Telemetry()
        runner = _runner(tmp_path, retries=1, telemetry=telemetry)
        with pytest.raises(CampaignError):
            runner.run(_campaign())
        assert telemetry.counters["campaign.shards.retried"] == 2
        assert telemetry.counters.get("campaign.shards.timeouts", 0) == 0

    def test_timeout_counts_as_a_failed_attempt(self, tmp_path, monkeypatch):
        _failing_worker(monkeypatch, exc=ShardTimeout("over budget"))
        telemetry = obs.Telemetry()
        runner = _runner(tmp_path, retries=1, telemetry=telemetry)
        with pytest.raises(CampaignError) as info:
            runner.run(_campaign())
        assert isinstance(info.value.__cause__, ShardTimeout)
        assert telemetry.counters["campaign.shards.retried"] == 2
        assert telemetry.counters["campaign.shards.timeouts"] == 2
        errors = {e["error"] for e in _events(runner, "shard_retry")}
        assert errors == {"ShardTimeout: over budget"}

    def test_real_timeout_budget_fails_the_shard(self, tmp_path):
        runner = _runner(tmp_path, retries=0, timeout_s=1e-4)
        with pytest.raises(CampaignError) as info:
            runner.run(_campaign())
        assert isinstance(info.value.__cause__, ShardTimeout)
        assert "exceeded its 0.0001s budget" in str(info.value)

    def test_failed_campaign_resumes_to_the_clean_result(self, tmp_path, monkeypatch):
        clean = _runner(tmp_path, "clean").run(_campaign())
        _failing_worker(monkeypatch)
        runner = _runner(tmp_path, "resumed", retries=0)
        with pytest.raises(CampaignError):
            runner.run(_campaign())
        monkeypatch.undo()
        resumed = runner.run(_campaign(), resume=True)
        assert resumed.aggregates_equal(clean)


class TestPoolFailures:
    def test_pool_timeout_exhausts_retries(self, tmp_path):
        runner = _runner(tmp_path, jobs=2, retries=1, timeout_s=1e-4)
        with pytest.raises(CampaignError, match=r"failed after 2 attempt\(s\)") as info:
            runner.run(_campaign())
        assert isinstance(info.value.__cause__, ShardTimeout)
        retries = _events(runner, "shard_retry")
        assert all(e["error"].startswith("ShardTimeout: ") for e in retries)
        failed = info.value.args[0].split()[1]
        assert [e["attempt"] for e in retries if e["shard"] == failed] == [1, 2]


class TestPayload:
    def test_payload_carries_the_campaign_sketch_resolution(self, tmp_path):
        campaign = _campaign(sketch_resolution=1 / 32)
        runner = _runner(tmp_path)
        for shard in campaign.shards():
            payload = runner._payload(shard, campaign)
            assert payload["sketch_resolution"] == 1 / 32
            assert payload["key"] == shard.key
            assert payload["seed_start"] == shard.seed_start
            assert payload["seed_count"] == shard.seed_count

    def test_payload_is_json_safe_and_stable(self, tmp_path):
        campaign = _campaign()
        runner = _runner(tmp_path, timeout_s=5.0)
        shard = campaign.shards()[1]
        first = runner._payload(shard, campaign)
        assert json.loads(json.dumps(first)) == first
        assert runner._payload(shard, campaign) == first
        assert first["timeout_s"] == 5.0
        assert first["telemetry"] is False
