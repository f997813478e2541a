"""Durable, content-addressed verification store (DESIGN.md §8).

Verified results survive process death: each function's proof entry is
keyed by a stable fingerprint of everything the proof depended on
(:mod:`repro.store.fingerprint`), published atomically with per-entry
checksums (:mod:`repro.store.store`). The entry file is the only
record of a proof: a run killed mid-flight — ``kill -9`` of the parent
or a pool worker — resumes by re-verifying only the functions whose
entries never landed; corrupt entries are quarantined and healed by
transparent re-verification.

The store is one write-through disk tier with one fixed layout,
``entries/<fp[:2]>/<fp>.json`` (DESIGN.md §13).
"""

from repro.store.fingerprint import (
    STORE_FORMAT,
    canon,
    function_fingerprint,
    logic_digest,
)
from repro.store.store import (
    CACHEABLE_STATUSES,
    STORE_STATS,
    ProofStore,
)

__all__ = [
    "CACHEABLE_STATUSES",
    "ProofStore",
    "STORE_FORMAT",
    "STORE_STATS",
    "canon",
    "function_fingerprint",
    "logic_digest",
]
