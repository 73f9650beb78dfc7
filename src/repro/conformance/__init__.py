"""Protocol conformance: an independent mini-endpoint + assertion harness.

This package proves the SBFM wire spec is complete enough to
*interoperate*, not merely self-consistent:

- :mod:`repro.conformance.minipeer` — a second, minimal endpoint
  implementation written only from ``docs/wire_format.md`` and
  ``docs/protocols.md``, deliberately sharing no code with
  ``core/wire.py`` or ``network/sessions.py``.
- :mod:`repro.conformance.harness` — a registry of named,
  trust-context-tagged checks emitting schema-validated JSON verdicts
  plus a markdown report through the ``analysis/experiments.py``
  artifact pipeline.
- :mod:`repro.conformance.adapter` — an engine-facing wrapper so the
  mini participant can ride inside :class:`~repro.network.engine.FriendingEngine`.
- :mod:`repro.conformance.mutants` — deliberately-broken minipeer
  variants proving the suite actually fails on spec violations.

CLI entry: ``repro conformance run [--suite NAME] [--out-dir D]``.
"""

from repro.conformance.harness import (
    TrustContext,
    available_checks,
    available_suites,
    load_check,
    run_and_report,
    run_suite,
    validate_verdict,
)
from repro.conformance.minipeer import MiniPeer

__all__ = [
    "MiniPeer",
    "TrustContext",
    "available_checks",
    "available_suites",
    "load_check",
    "run_and_report",
    "run_suite",
    "validate_verdict",
]
