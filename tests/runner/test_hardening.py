"""Runner hardening: retries, crashed/wedged workers, journal resume.

The misbehaving points use the ``chaos-selftest`` scenario, whose fault
path is double-gated behind ``URLLC5G_CHAOS=1`` and a marker-file token
and fires exactly once — so a retried point succeeds and yields the
same payload every attempt would have produced.
"""

import json

import pytest

from repro.runner import (
    Campaign,
    CampaignJournal,
    CampaignRunner,
    ResultCache,
    bench_payload,
    run_point,
)


def _ok_point(value):
    return ("chaos-selftest", {"mode": "ok", "index": value})


def _payloads(result):
    return [entry.result for entry in result.point_results]


# ----------------------------------------------------------------------
# bounded retry, serial and parallel
# ----------------------------------------------------------------------
def test_serial_retry_recovers_a_raising_point(tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    campaign = Campaign.build("retry", 5, [
        ("chaos-selftest", {"mode": "raise",
                            "token": str(tmp_path / "marker")}),
        _ok_point(1),
    ])
    result = CampaignRunner(workers=1, max_retries=2).run(campaign)
    flaky, ok = result.point_results
    assert not flaky.failed and flaky.attempts == 2
    assert not ok.failed and ok.attempts == 1
    assert result.retries == 1
    # The payload is attempt-independent: recomputing the point now
    # (marker present) gives exactly what the retry recorded.
    assert flaky.result == run_point(flaky.point)


def test_exhausted_retries_fail_the_point_not_the_campaign(
        tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    # An unwritable token directory makes the fault fire every attempt.
    campaign = Campaign.build("doomed", 5, [
        ("chaos-selftest", {"mode": "raise",
                            "token": str(tmp_path / "no-dir" / "m")}),
        _ok_point(1),
    ])
    result = CampaignRunner(workers=1, max_retries=1).run(campaign)
    doomed, ok = result.point_results
    assert doomed.failed and doomed.attempts == 2
    assert "chaos-selftest" in doomed.error
    assert doomed.result == {}
    assert not ok.failed
    assert result.failures == (doomed,)


def test_selftest_fault_path_is_inert_without_the_env_gate(tmp_path,
                                                           monkeypatch):
    monkeypatch.delenv("URLLC5G_CHAOS", raising=False)
    campaign = Campaign.build("gated", 5, [
        ("chaos-selftest", {"mode": "raise",
                            "token": str(tmp_path / "marker")}),
    ])
    result = CampaignRunner(workers=1, max_retries=0).run(campaign)
    assert not result.point_results[0].failed
    assert not (tmp_path / "marker").exists()


# ----------------------------------------------------------------------
# crashed and wedged workers
# ----------------------------------------------------------------------
def test_killed_worker_fails_only_its_point(tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    campaign = Campaign.build("killer", 5, [
        ("chaos-selftest", {"mode": "kill",
                            "token": str(tmp_path / "marker")}),
        _ok_point(1),
        _ok_point(2),
    ])
    with CampaignRunner(workers=2, max_retries=2) as runner:
        result = runner.run(campaign)
    assert not result.failures
    assert result.retries >= 1  # the killed attempt was requeued
    for entry in result.point_results:
        assert entry.result == run_point(entry.point)


def test_wedged_worker_is_killed_and_its_point_requeued(
        tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    campaign = Campaign.build("wedge", 5, [
        ("chaos-selftest", {"mode": "hang",
                            "token": str(tmp_path / "marker")}),
        _ok_point(1),
    ])
    with CampaignRunner(workers=2, max_retries=2,
                        timeout_s=2.0) as runner:
        result = runner.run(campaign)
    assert not result.failures
    assert result.retries >= 1
    for entry in result.point_results:
        assert entry.result == run_point(entry.point)


# ----------------------------------------------------------------------
# journal checkpoint / resume
# ----------------------------------------------------------------------
def _cheap_campaign(seed=99):
    specs = [("radio-sweep", {"bus": bus, "samples": samples,
                              "repetitions": 15})
             for bus in ("usb2", "usb3")
             for samples in (2_000, 6_000)]
    return Campaign.build("journaled", seed, specs)


def test_interrupted_run_resumes_to_the_uninterrupted_document(tmp_path):
    campaign = _cheap_campaign()
    baseline = CampaignRunner(workers=1).run(campaign)

    journal_path = tmp_path / "run.journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        first = CampaignRunner(workers=1).run(campaign, journal=journal)
    assert _payloads(first) == _payloads(baseline)
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(campaign)  # header + one per point

    # Simulate a crash after two completed points: keep header + 2.
    journal_path.write_text("\n".join(lines[:3]) + "\n",
                            encoding="utf-8")
    with CampaignJournal(journal_path) as journal:
        resumed = CampaignRunner(workers=1).run(campaign,
                                                journal=journal,
                                                resume=True)
    assert resumed.journal_replays == 2
    assert _payloads(resumed) == _payloads(baseline)
    replay_flags = [entry.from_journal
                    for entry in resumed.point_results]
    assert replay_flags.count(True) == 2
    # The healed journal is complete again.
    healed = journal_path.read_text(encoding="utf-8").splitlines()
    assert len(healed) == 1 + len(campaign)


def test_corrupt_journal_tail_is_discarded_with_a_warning(tmp_path):
    campaign = _cheap_campaign()
    journal_path = tmp_path / "run.journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        CampaignRunner(workers=1).run(campaign, journal=journal)
    with open(journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"digest": "truncated-mid-wr')
    with CampaignJournal(journal_path) as journal:
        resumed = CampaignRunner(workers=1).run(campaign,
                                                journal=journal,
                                                resume=True)
    assert resumed.journal_replays == len(campaign)
    assert any("corrupt or truncated" in warning
               for warning in resumed.warnings)
    assert _payloads(resumed) == \
        _payloads(CampaignRunner(workers=1).run(campaign))


def test_foreign_journal_is_ignored_not_replayed(tmp_path):
    journal_path = tmp_path / "run.journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        CampaignRunner(workers=1).run(_cheap_campaign(seed=1),
                                      journal=journal)
    with CampaignJournal(journal_path) as journal:
        resumed = CampaignRunner(workers=1).run(_cheap_campaign(seed=2),
                                                journal=journal,
                                                resume=True)
    assert resumed.journal_replays == 0
    assert any("different campaign" in warning
               for warning in resumed.warnings)


def test_journal_record_requires_start(tmp_path):
    journal = CampaignJournal(tmp_path / "j.jsonl")
    with pytest.raises(RuntimeError, match="not started"):
        journal.record("digest", {"v": 1})


# ----------------------------------------------------------------------
# the whole harness at once: corrupt cache + killed worker + resume
# ----------------------------------------------------------------------
def test_smoke_harness_survives_corruption_and_crashes(
        tmp_path, monkeypatch):
    monkeypatch.setenv("URLLC5G_CHAOS", "1")
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{definitely not json", encoding="utf-8")
    campaign = Campaign.build("harness", 8, [
        ("chaos-selftest", {"mode": "kill",
                            "token": str(tmp_path / "marker")}),
        _ok_point(1),
        ("radio-sweep", {"bus": "usb3", "samples": 2_000,
                         "repetitions": 10}),
    ])
    cache = ResultCache(cache_path)
    with CampaignRunner(workers=2, cache=cache, fingerprint="fp",
                        max_retries=2) as runner:
        with CampaignJournal(tmp_path / "j.jsonl") as journal:
            result = runner.run(campaign, journal=journal)
    assert not result.failures
    assert any("quarantined" in warning for warning in result.warnings)
    for entry in result.point_results:
        assert entry.result == run_point(entry.point)

    payload = bench_payload(result)
    assert payload["failed_points"] == []
    assert payload["retries"] == result.retries
    assert payload["journal_replays"] == 0
    assert any("quarantined" in warning
               for warning in payload["warnings"])
    json.dumps(payload)  # the whole document stays serialisable
