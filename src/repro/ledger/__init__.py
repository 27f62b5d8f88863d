"""Verifiable pruning: the attestation ledger (`repro.ledger`).

The differential suite proves, offline, that every pruning path produces
byte-identical output and that pruned views answer queries exactly like
the original (Thm 4.5).  This package promotes that invariant to a
runtime, auditable contract:

* :mod:`~repro.ledger.canonical` — deterministic JSON + incremental
  SHA-256 content hashing of inputs, outputs and record streams;
* :mod:`~repro.ledger.ledger` — an append-only, crash-safe, hash-chained
  JSONL ledger of ``(grammar_fp, workload_fp, limits_fp, input_hash) →
  (output_hash, stats, provenance)`` attestations, doubling as a
  content-addressed result cache (dedup: a recorded input/workload pair
  is served from stored bytes instead of re-pruned);
* :mod:`~repro.ledger.replay` — re-prune every recorded entry and attest
  the hashes still hold, with a structured divergence report.

Pass a :class:`Ledger` to :func:`repro.prune` / :func:`repro.extract`
via ``ledger=``, to the service via ``ServiceConfig(ledger=...)`` or
``repro-xml serve --ledger``, and verify with ``repro-xml verify-ledger``.
"""

from repro import _lazy

_EXPORTS = {
    "Attestation": "repro.ledger.replay",
    "HashingSink": "repro.ledger.canonical",
    "Ledger": "repro.ledger.ledger",
    "LedgerEntry": "repro.ledger.ledger",
    "ReplayReport": "repro.ledger.replay",
    "ResultStore": "repro.ledger.ledger",
    "canonical_json": "repro.ledger.canonical",
    "decode_stats": "repro.ledger.ledger",
    "encode_stats": "repro.ledger.ledger",
    "hash_canonical": "repro.ledger.canonical",
    "hash_file": "repro.ledger.canonical",
    "hash_records": "repro.ledger.canonical",
    "hash_text": "repro.ledger.canonical",
    "limits_fingerprint": "repro.ledger.canonical",
    "replay_ledger": "repro.ledger.replay",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
