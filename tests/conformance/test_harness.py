"""The conformance harness itself: registry, verdicts, mutants.

Three layers of pinning:

* the registry/verdict plumbing behaves (schema-valid records, stable
  error messages for unknown names),
* the honest mini endpoint passes every registered check in both the
  smoke subset and the full suite,
* each deliberately-broken mutant peer fails at least one check — the
  proof the suite can actually detect spec violations, not merely bless
  the happy path;
* a deliberately-broken hot-path AES fails the episode checks: the mini
  endpoint seals and opens with the per-block FIPS-197 code, so the suite
  is a differential test of the batched SWAR cipher as well.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.conformance.harness import (
    VERDICT_SCHEMA,
    TrustContext,
    available_checks,
    available_suites,
    check,
    load_check,
    render_markdown,
    run_and_report,
    run_suite,
    validate_verdict,
)
from repro.conformance.mutants import (
    available_mutants,
    describe_mutant,
    mutant_peer,
)
from repro.crypto import backend

pytestmark = pytest.mark.conformance


class TestRegistry:
    def test_suites_present(self):
        assert available_suites() == ("episodes", "frames", "sessions")

    def test_every_check_loads_with_metadata(self):
        names = available_checks()
        assert len(names) >= 20
        for name in names:
            entry = load_check(name)
            assert entry.name == name
            assert entry.suite in available_suites()
            assert entry.trust.names(), name
            assert entry.doc, name

    def test_suite_filter_and_smoke_filter(self):
        frames = available_checks("frames")
        assert frames and all(load_check(n).suite == "frames" for n in frames)
        smoke = available_checks(smoke_only=True)
        assert smoke and all(load_check(n).smoke for n in smoke)
        assert set(smoke) < set(available_checks())

    def test_unknown_names_raise(self):
        with pytest.raises(ValueError, match="unknown conformance suite"):
            available_checks("nonesuch")
        with pytest.raises(ValueError, match="unknown conformance check"):
            load_check("nonesuch")
        with pytest.raises(ValueError, match="unknown mutant"):
            mutant_peer("nonesuch")
        with pytest.raises(ValueError, match="unknown mutant"):
            describe_mutant("nonesuch")

    def test_duplicate_registration_rejected(self):
        existing = available_checks()[0]
        with pytest.raises(ValueError, match="duplicate conformance check"):

            @check(existing, suite="frames", trust=TrustContext.INTEGRITY)
            def clash(peer):  # pragma: no cover - never runs
                return None


class TestVerdicts:
    GOOD = {
        "check": "frame-roundtrip",
        "suite": "frames",
        "trust": ["INTEGRITY"],
        "smoke": True,
        "status": "pass",
        "detail": "ok",
    }

    def test_good_record_validates(self):
        validate_verdict(self.GOOD)

    @pytest.mark.parametrize("missing", sorted(VERDICT_SCHEMA["required"]))
    def test_missing_key_rejected(self, missing):
        record = {k: v for k, v in self.GOOD.items() if k != missing}
        with pytest.raises(ValueError):
            validate_verdict(record)

    def test_extra_key_rejected(self):
        with pytest.raises(ValueError):
            validate_verdict({**self.GOOD, "extra": 1})

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            validate_verdict({**self.GOOD, "status": "maybe"})

    def test_bad_trust_entry_rejected(self):
        with pytest.raises(ValueError):
            validate_verdict({**self.GOOD, "trust": ["INTEGRITY", "vibes"]})


@pytest.mark.conformance_smoke
def test_smoke_subset_green():
    """The tier-1 smoke slice: every smoke-tagged check passes."""
    records = run_suite(smoke_only=True)
    assert records
    failed = [r["check"] for r in records if r["status"] != "pass"]
    assert not failed, f"smoke conformance failures: {failed}"


def test_full_suite_green_and_artifacts(tmp_path):
    json_path, md_path, records = run_and_report(out_dir=tmp_path)
    failed = [r["check"] for r in records if r["status"] != "pass"]
    assert not failed, f"conformance failures: {failed}"
    assert {r["suite"] for r in records} == set(available_suites())
    for record in records:
        validate_verdict(record)

    payload = json.loads(json_path.read_text())
    assert payload["plan"] == "conformance"
    assert payload["schema"] == VERDICT_SCHEMA
    assert payload["records"] == records

    report = md_path.read_text()
    assert report == render_markdown(records, title="conformance")
    for record in records:
        assert record["check"] in report


def test_check_crash_becomes_fail_verdict():
    """A crashing check must yield a schema-valid fail record, not abort."""

    @check("harness-test-crash", suite="frames", trust=TrustContext.INTEGRITY)
    def crash(peer):
        raise RuntimeError("boom")

    try:
        records = [r for r in run_suite("frames") if r["check"] == "harness-test-crash"]
        assert len(records) == 1
        assert records[0]["status"] == "fail"
        assert "RuntimeError: boom" in records[0]["detail"]
        validate_verdict(records[0])
    finally:
        from repro.conformance import harness as _h

        _h._REGISTRY.pop("harness-test-crash", None)


@functools.lru_cache(maxsize=None)
def _failing_checks(mutant_name: str) -> frozenset[str]:
    records = run_suite(peer=mutant_peer(mutant_name))
    return frozenset(r["check"] for r in records if r["status"] == "fail")


def test_mutant_registry_shape():
    names = available_mutants()
    assert len(names) >= 3
    for name in names:
        assert describe_mutant(name)


@pytest.mark.parametrize("name", available_mutants())
def test_each_mutant_is_caught(name):
    """Every registered spec violation trips at least one check."""
    failed = _failing_checks(name)
    assert failed, f"mutant {name!r} ({describe_mutant(name)}) passed the whole suite"


def test_mutants_cover_three_distinct_violations():
    """The acceptance bar: >= 3 distinct injected violations detected."""
    caught = {name: _failing_checks(name) for name in available_mutants()}
    detected = [name for name, fails in caught.items() if fails]
    assert len(detected) >= 3, f"only {detected} were caught"
    distinct_checks = set().union(*caught.values())
    assert len(distinct_checks) >= 3, (
        f"mutants only exercised {sorted(distinct_checks)}"
    )


def test_honest_peer_shared_across_checks_still_green():
    """A single shared honest peer (the mutant code path) stays green."""
    from repro.conformance.minipeer import MiniPeer

    records = run_suite(peer=MiniPeer())
    failed = [r["check"] for r in records if r["status"] != "pass"]
    assert not failed, f"shared-peer failures: {failed}"


class _FlippedRoundKeyAES(backend.TablesBackend):
    """The batched AES with one bit of every first round key flipped.

    Encryption and decryption share the wrong schedule, so they still
    invert each other: only an independent AES can tell.
    """

    def _expand_uncached(self, keys):
        schedules = super()._expand_uncached(keys)
        for round_keys in schedules:  # the cached lists, edited in place
            round_keys[1] = bytes([round_keys[1][0] ^ 1]) + round_keys[1][1:]
        return schedules


def test_confidentiality_episodes_catch_a_self_consistent_aes_bug(monkeypatch):
    """CONFIDENTIALITY: sealing under a wrong AES is a divergence.

    A fresh broken instance stands in for the hot-path cipher, so the
    shared instance's round-key cache is never touched.
    """
    monkeypatch.setattr(backend, "CIPHER", _FlippedRoundKeyAES())
    failed = [r for r in run_suite("episodes") if r["status"] == "fail"]
    assert failed, "a wrong but self-consistent AES passed every episode check"
    assert all("CONFIDENTIALITY" in r["trust"] for r in failed), failed
