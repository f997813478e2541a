"""``repro.service`` — the resilient verification service.

A long-lived daemon that keeps parsed programs, the interner-backed
term graph, the solver's caches and a hot proof store resident
across requests, so an edit-verify loop pays for *exactly what
changed* instead of a cold pipeline start per invocation:

* :mod:`.config`     — ``ServiceConfig``, set from ``reprod.py``'s flags;
* :mod:`.protocol`   — newline-delimited JSON request/response framing;
* :mod:`.corpus`     — the registry of loadable verification corpora;
* :mod:`.session`    — one corpus's hot verification state; it diffs
  fingerprints against what it has committed (a function is dirty when
  new or when its fingerprint moved) and hands the dirty set to
  ``HybridVerifier.run``, the CLI's own loop;
* :mod:`.daemon`     — sockets, admission control, load shedding, the
  watchdog, and graceful drain;
* :mod:`.client`     — a small synchronous client.

Entry point: ``scripts/reprod.py``; smoke gate: ``scripts/
service_check.py`` (the CI ``service-smoke`` job).
"""

from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.corpus import Corpus, corpus_names, load_corpus, register_corpus
from repro.service.daemon import VerifierDaemon
from repro.service.session import ServiceSession

__all__ = [
    "Corpus",
    "ServiceClient",
    "ServiceConfig",
    "ServiceSession",
    "VerifierDaemon",
    "corpus_names",
    "load_corpus",
    "register_corpus",
]
