"""Canonical job keys: content hashes identifying equivalent executions.

Two job submissions are *equivalent* — and may therefore share one cache
entry or one batched backend execution — when they run the same circuit on
the same backend under the same execution-relevant configuration.  The key
deliberately excludes the requested shot count: a cached 4096-shot histogram
can serve a 256-shot request by subsampling, and a 8192-shot request by a
top-up run, so shots are reconciled per request rather than baked into the
identity (see :mod:`repro.service.cache`).

The circuit portion of the key is a hash over the canonical JSON form
produced by :mod:`repro.ir.serialization`, with the circuit *name* removed:
``bell`` and ``bell_copy`` containing identical instructions are the same
work.  The configuration portion fingerprints the backend name plus whatever
options the broker passes to the backend (noise model parameters, simulator
thread count is excluded — it changes speed, not distributions).

Each half is computed once.  The circuit digest is memoised on the circuit
object by :func:`~repro.ir.serialization.circuit_content_hash` (resubmitting
a circuit object, or keying every binding of one ansatz, hashes nothing), and
:class:`~repro.service.broker.QuantumJobService` fingerprints its backend
and options once at construction and feeds both halves to the same private
combiner (:func:`_combine`) the public functions use — so the public
:func:`job_key` / :func:`binding_key` / :func:`sweep_key` keep their
signatures and values, and the key a service stamps on a result is the key
they return.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

from ..ir.composite import CompositeInstruction
from ..ir.serialization import canonical_json, circuit_content_hash

__all__ = [
    "job_key",
    "circuit_content_hash",
    "config_fingerprint",
    "sweep_key",
    "binding_key",
    "canonical_binding",
]

#: Backend options that do not affect results and must not fragment the
#: cache (they tune performance, not physics).  ``threads`` sizes the
#: engine's chunk-replay pool; a job's shots are one draw on one seeded
#: generator, so fixed-seed counts are byte-identical at every setting.
#: ``chunk-threshold`` gates chunk-parallel plan replay (bitwise identical
#: to serial replay).  Both stay out of the job identity.  The retired
#: process-shard options (``processes``, ``retry-max-attempts``,
#: ``breaker-*``) are refused where options enter — service construction
#: and accelerator initialisation — so they never reach a key.
#:
#: The job-lifecycle knobs (``deadline-seconds``, ``memory-budget-bytes``,
#: ``admission-wait-seconds``) are likewise non-semantic: they decide
#: *whether and when* a result arrives — a job may fail with
#: DeadlineExceeded or AdmissionRejected under one setting and succeed
#: under another — but never change the histogram a successful job
#: returns, so a result produced under a tight deadline is perfectly
#: reusable by a submission with a loose one.
#:
#: ``"precision"`` is deliberately **not** listed: the complex64 tier
#: changes the evolved amplitudes (within the documented fidelity bound)
#: and therefore the sampled distribution, so it is semantic — a
#: ``precision: "single"`` submission must never be served a complex128
#: histogram or vice versa.
#:
#: ``"method"`` (``auto`` / ``statevector`` / ``stabilizer``) is handled
#: specially in :func:`config_fingerprint` rather than listed here.  An
#: *explicit* method is semantic: forcing the tableau or the dense lane
#: pins the sampling law (the tableau draws its randomness from GF(2)
#: affine forms, the statevector from inverse-CDF or multinomial draws over
#: amplitudes — same distribution, different per-seed streams), so an
#: explicit choice must not share cache entries with the other lane.
#: The dense stream's version (``SAMPLING_STREAM``) is not part of a key.
#: The default ``auto`` is
#: *non-semantic*: it is the broker's routing decision, and the whole
#: point of automatic Clifford routing is that callers who did not ask for
#: a method get the fast path without their job identity moving.
_NON_SEMANTIC_OPTIONS = frozenset(
    {
        "threads",
        "latency-seconds",
        "chunk-threshold",
        "deadline-seconds",
        "memory-budget-bytes",
        "admission-wait-seconds",
    }
)


# circuit_content_hash is re-exported from repro.ir.serialization: the job
# broker's result cache and the simulator's execution-plan cache must agree
# on one content identity, so the canonical hash lives with the IR.


def config_fingerprint(
    backend: str, options: Mapping[str, object] | None = None
) -> str:
    """Fingerprint of the execution environment a result depends on."""
    semantic = {
        key: value
        for key, value in (options or {}).items()
        if key not in _NON_SEMANTIC_OPTIONS
    }
    # The default method ("auto") is a routing decision, not an identity
    # (see the module docstring above); explicit methods stay semantic.
    method = semantic.get("method")
    if method is not None and str(method).strip().lower() == "auto":
        semantic = {key: value for key, value in semantic.items() if key != "method"}
    payload = {"backend": backend.lower(), "options": semantic}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _combine(
    circuit_hash: str, fingerprint: str, kind: str = "", canonical: object = None
) -> str:
    """The one key derivation: the two digests, plus for ``kind`` ``"sweep"``
    / ``"binding"`` the canonical binding list / binding."""
    combined = circuit_hash + ":" + fingerprint
    if kind:
        combined += ":" + kind + ":" + canonical_json(canonical)
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()


def job_key(
    circuit: CompositeInstruction,
    backend: str,
    options: Mapping[str, object] | None = None,
) -> str:
    """Canonical key for (circuit content, backend, config) — shots excluded."""
    return _combine(circuit_content_hash(circuit), config_fingerprint(backend, options))


# -- sweep keys ---------------------------------------------------------------------
#
# A parameter sweep is identified by (circuit content, backend config,
# binding list).  The *binding list* is semantic: two sweeps over the same
# ansatz with different angle sets — or the same angles in a different
# order — produce different result tables, so the bindings (values and
# order, after canonicalisation) hash into the sweep key.  What is
# deliberately NOT in the key is everything about *how* the fan-out runs:
# the fan-out width, the binding-range chunking, which dispatcher thread
# evaluates each range, and that lane's worker count are all
# routing decisions — every lane is bit-identical per binding at a
# given precision — so a sweep keeps one identity whether it runs on one
# worker or thirty-two.  Shots stay out for the same reconciliation reason
# as ``job_key``.
#
# Each binding additionally gets a *member* key via :func:`binding_key`,
# which is exactly the identity an equivalent independent submission of the
# pre-bound circuit would occupy in spirit: (circuit, config, one binding).
# Member keys are what the result cache stores sweep histograms under, so a
# later sweep — or a plain submit of the same ansatz at the same angles
# via a sweep — can reuse per-binding results even when the surrounding
# sweep differs.


def canonical_binding(binding) -> object:
    """Canonical JSON-able form of one parameter binding.

    Mappings normalise to name-sorted ``{name: float}`` dicts; positional
    sequences to ``[float, ...]`` lists.  A mapping and the positional
    sequence it implies are *not* identified — name-order resolution lives
    in the IR's ``bind``, and conflating them here would require importing
    that resolution into the key.
    """
    if isinstance(binding, Mapping):
        return {str(name): float(value) for name, value in sorted(binding.items())}
    return [float(value) for value in binding]


def sweep_key(
    circuit: CompositeInstruction,
    backend: str,
    options: Mapping[str, object] | None = None,
    bindings=(),
) -> str:
    """Canonical key for a parameter sweep (binding list is semantic)."""
    return _combine(
        circuit_content_hash(circuit),
        config_fingerprint(backend, options),
        "sweep",
        [canonical_binding(b) for b in bindings],
    )


def binding_key(
    circuit: CompositeInstruction,
    backend: str,
    options: Mapping[str, object] | None = None,
    binding=(),
) -> str:
    """Cache identity of one binding of a parametric circuit.

    Independent of the sweep it arrived in (grouping and fan-out width are
    routing, not identity), so per-binding histograms are reusable across
    differently-shaped sweeps of the same ansatz.
    """
    return _combine(
        circuit_content_hash(circuit),
        config_fingerprint(backend, options),
        "binding",
        canonical_binding(binding),
    )
