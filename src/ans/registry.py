"""Authoritative agent registry: registration, renewal, revocation, resolution.

State is a fold over an append-only event log (Registered / Renewed /
Revoked), so audit and crash recovery come for free: replaying the log, or a
snapshot plus the suffix, reproduces a state with identical resolution
behavior. Expiry is lazy on read plus an explicit sweep, which keeps
correctness independent of timer precision.

Writes are serialized and ordered by event sequence number; reads always see
a consistent post-event state.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import threading
import weakref
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from . import names
from .canonical import canonical_bytes, canonical_json
from .errors import (
    AnsError,
    BAD_SIGNATURE,
    DUPLICATE_AGENT,
    INVALID_NAME,
    LOG_CORRUPT,
    NAME_MISMATCH,
    POLICY_DENIED,
    REVOKED,
    UNKNOWN_AGENT,
    decode_doc,
    read_doc,
)
from .identity import (
    CapabilityCommitment,
    Certificate,
    CertificateChain,
    validate_chain,
    verify_signature,
    window_error,
)
from .metrics import Timer
from .names import AnsName, NameQuery
from .policy import EvaluationContext, PHASE_ADMISSION, PHASE_RUNTIME, PolicySubject, evaluate, explain

DEFAULT_RECORD_TTL_S = 24 * 3600
# Renewal/revocation payloads carry a timestamp that must be near the server
# clock, bounding replay of captured control messages.
CONTROL_TS_WINDOW_S = 300

# Name fields with a posting list; ``AnsName`` and ``NameQuery`` share them.
INDEXED_FIELDS = ("protocol", "agent_id", "capability", "provider", "extension")

# The answer cache's limit, in 8-byte references: an answer costs one per
# record it lists plus ANSWER_ENTRY_REFS for its query, window and map slot
# (about 340 bytes for a one-field query on CPython 3.11), so a full cache
# holds about 0.5 MB however the queries are spread.
ANSWER_CACHE_REFS = 1 << 16
ANSWER_ENTRY_REFS = 64

STATUS_ACTIVE = "active"
STATUS_REVOKED = "revoked"

EVENT_REGISTERED = "Registered"
EVENT_RENEWED = "Renewed"
EVENT_REVOKED = "Revoked"


@dataclass(frozen=True)
class AgentRecord:
    name: AnsName
    did: str
    endpoint: str
    chain: CertificateChain
    commitments: tuple[CapabilityCommitment, ...]
    namespace: str
    registered_at: int
    expires_at: int
    status: str
    # First and last second at which the record may be served: inside all
    # three certificate windows and no later than its own expiry. Set at
    # construction, so every record's attributes come in one order and
    # records keep sharing one attribute-key table.
    serve_from: int = field(init=False, repr=False, compare=False)
    serve_until: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        agent, inter, root = self.chain.agent, self.chain.intermediate, self.chain.root
        object.__setattr__(self, "serve_from",
                           max(agent.not_before, inter.not_before, root.not_before))
        object.__setattr__(self, "serve_until",
                           min(self.expires_at, agent.not_after, inter.not_after, root.not_after))

    @functools.cached_property
    def doc(self) -> dict:
        """Serialized form, cached: records are immutable."""
        return self.to_doc()

    @functools.cached_property
    def doc_bytes(self) -> bytes:
        """Canonical bytes of the serialized form, cached: the record's log
        line, its register or renew reply and every resolve reply that
        carries it share this one encoding. A record recovered from a
        ``Registered`` line in the layout ``Registry._append`` writes starts
        with the bytes it was logged as (``RecordDecoder.record``) and is
        never encoded."""
        return canonical_bytes(self.to_doc())

    def to_doc(self) -> dict:
        return {
            "name": self.name.render(),
            "did": self.did,
            "endpoint": self.endpoint,
            "chain": self.chain.to_doc(),
            "commitments": [c.to_doc() for c in self.commitments],
            "namespace": self.namespace,
            "registered_at": self.registered_at,
            "expires_at": self.expires_at,
            "status": self.status,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "AgentRecord":
        return RecordDecoder().record(doc)


class RecordDecoder:
    """Decodes record documents, decoding each issuer certificate only once.

    Its one table maps the signature text of each intermediate and root
    certificate it has decoded to the (document, certificate) pairs decoded
    under it, matched by document equality. Records whose chains share an
    intermediate and a root therefore hold the same two objects, while a
    document that differs in any field, even under the same signature,
    decodes on its own. An agent certificate is never shared: it decodes on
    its own, reusing the record's parsed name and decoded commitments when
    its own text for them is the same. The table lives as long as the
    decoder.
    """

    def __init__(self) -> None:
        # signature text -> (document, certificate) of each issuer decoded under it
        self._issuers: dict[str, list[tuple[dict, Certificate]]] = {}

    def _issuer(self, doc: dict) -> Certificate:
        pairs = self._issuers.setdefault(doc["signature"], [])
        for known, cert in pairs:
            if known == doc:
                return cert
        cert = Certificate.from_doc(doc)
        pairs.append((doc, cert))
        return cert

    def record(self, doc: dict, logged: bytes | None = None) -> AgentRecord:
        """Decode a record document. ``logged``, when given, must be the
        canonical bytes of ``doc``; the record serves them as its
        ``doc_bytes`` instead of encoding itself."""
        name_text = doc["name"]
        name = names.parse(name_text)
        commitment_docs = doc["commitments"]
        commitments = tuple(CapabilityCommitment.from_doc(c) for c in commitment_docs)
        chain_doc = doc["chain"]

        def certificate(cert_doc: dict) -> Certificate:
            if cert_doc is not chain_doc[0]:  # the chain lists the agent first
                return self._issuer(cert_doc)
            return Certificate.from_doc(
                cert_doc,
                name if cert_doc.get("subject_name") == name_text else None,
                commitments if cert_doc.get("capability_commitments") == commitment_docs else None,
            )

        record = AgentRecord(
            name=name,
            did=doc["did"],
            endpoint=doc["endpoint"],
            chain=CertificateChain.from_doc(chain_doc, certificate),
            commitments=commitments,
            namespace=doc["namespace"],
            registered_at=int(doc["registered_at"]),
            expires_at=int(doc["expires_at"]),
            status=doc["status"],
        )
        if logged is not None:
            object.__setattr__(record, "doc_bytes", logged)
        return record


@dataclass(frozen=True)
class RegistrationRequest:
    """Wire form of a registration: the record fields minus server-assigned
    timestamps/status, signed by the agent's identity key."""

    name_text: str
    endpoint: str
    namespace: str
    chain: CertificateChain
    commitments: tuple[CapabilityCommitment, ...]
    signature: bytes = b""

    def signing_payload(self) -> dict:
        return {
            "action": "register",
            "name": self.name_text,
            "endpoint": self.endpoint,
            "namespace": self.namespace,
            "chain": self.chain.to_doc(),
            "commitments": [c.to_doc() for c in self.commitments],
        }

    def to_doc(self) -> dict:
        doc = self.signing_payload()
        del doc["action"]
        doc["signature"] = self.signature.hex()
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "RegistrationRequest":
        if not (isinstance(doc["endpoint"], str) and isinstance(doc["namespace"], str)):
            raise TypeError("endpoint and namespace must be strings")
        return cls(
            name_text=doc["name"],
            endpoint=doc["endpoint"],
            namespace=doc["namespace"],
            chain=CertificateChain.from_doc(doc["chain"]),
            commitments=tuple(CapabilityCommitment.from_doc(c) for c in doc["commitments"]),
            signature=bytes.fromhex(doc["signature"]),
        )


def renewal_payload(name_text: str, ts: int) -> dict:
    return {"action": "renew", "name": name_text, "ts": ts}


def revocation_payload(name_text: str, ts: int) -> dict:
    return {"action": "revoke", "name": name_text, "ts": ts}


@dataclass(frozen=True, slots=True)
class RegistryEvent:
    seq: int
    kind: str
    payload: dict
    at: int

    def to_doc(self) -> dict:
        return {"seq": self.seq, "kind": self.kind, "payload": self.payload, "at": self.at}

    @classmethod
    def from_doc(cls, doc: dict) -> "RegistryEvent":
        return cls(seq=int(doc["seq"]), kind=doc["kind"], payload=doc["payload"], at=int(doc["at"]))


class EventLog:
    """Append-only JSON-lines event log with optional fsync per append."""

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        self._drop_torn_tail()
        self._fh = open(path, "ab")

    def _drop_torn_tail(self) -> None:
        """Cut an unterminated final line off the log before appending to it.

        Every append writes a whole line ending in a newline, so a final line
        without one is an append torn by a crash, never acknowledged; left in
        place, the next append would be glued onto it.
        """
        with open(self.path, "a+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            keep, end = 0, size
            while end > 0:
                start = max(0, end - 65536)
                fh.seek(start)
                newline = fh.read(end - start).rfind(b"\n")
                if newline >= 0:
                    keep = start + newline + 1
                    break
                end = start
            if keep == size:
                return
            fh.truncate(keep)
            if self.fsync:
                os.fsync(fh.fileno())
        print(f"event log {self.path}: dropped a torn final line of {size - keep} bytes "
              f"at offset {keep}", file=sys.stderr)

    def append(self, event: RegistryEvent) -> None:
        self.append_line(canonical_bytes(event.to_doc()))

    def append_line(self, line: bytes) -> None:
        """Append one already-encoded event."""
        self._fh.write(line + b"\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def read_numbered(
        path: str, after_seq: int = 0,
    ) -> Iterator[tuple[int, RegistryEvent, bytes | None]]:
        """Yield (line number, event, line) for events with seq > after_seq
        as they are read, enforcing dense ordering. ``line`` is the line as
        read, newline included, or None when it holds fields beyond the
        event's four, so that ``Registry._logged_record`` never takes an
        extra field's text for part of the event's.

        A final line with no newline is a torn append, not an event: it is not
        yielded, and opening an ``EventLog`` on the file cuts it off. Every
        other line must parse. LOG_CORRUPT carries the last good sequence
        number and the line number in its details so an operator knows where
        replay halted.
        """
        expected = after_seq + 1
        last_good = after_seq
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    return
                if line.isspace():
                    continue
                event, bare = decode_doc(f"event at line {lineno}", _read_event, line,
                                         LOG_CORRUPT, {"last_good_seq": last_good, "line": lineno})
                if event.seq <= after_seq:
                    continue  # covered by the snapshot
                if event.seq != expected:
                    raise AnsError(
                        LOG_CORRUPT,
                        f"sequence gap at line {lineno}: expected {expected}, got {event.seq}",
                        details={"last_good_seq": last_good, "line": lineno},
                    )
                yield lineno, event, line if bare else None
                last_good = event.seq
                expected += 1


def _read_event(line: bytes) -> tuple[RegistryEvent, bool]:
    """The event of a log line, and whether the line holds no other field."""
    doc = json.loads(line)
    return RegistryEvent.from_doc(doc), len(doc) == 4


def _recovered(what: str, apply, doc, details=None):
    """``apply(doc)`` for a document recovery reads back, any refusal of which
    is LOG_CORRUPT: recovery trusts what it wrote, so a logged record that a
    reader refuses, whatever its code, means the file is damaged."""
    try:
        return decode_doc(what, apply, doc, LOG_CORRUPT, details)
    except AnsError as exc:
        if exc.code == LOG_CORRUPT:
            raise
        raise AnsError(LOG_CORRUPT, f"bad {what}: {exc}", details) from exc


def _ignore(operation: str, latency_ms: float) -> None:
    """The latency sink of a registry given none."""


class Registry:
    """In-memory registry state plus the write-ahead event log.

    Every operation takes one plain lock once and does all its work on the
    state under that one hold. Writers (register / renew / revoke) append an
    event before the in-memory state changes, so readers always observe a
    consistent post-event state. ``_store`` is the only code that changes a
    key's record: it puts or removes the record and keeps its postings, its
    runtime verdict and the answer cache in step.

    Resolution reads two structures kept beside the records:

    - Posting lists: for each name field in ``INDEXED_FIELDS``, a map from
      field value to the keys of the non-revoked records with that value. A
      query reads the smallest list among the fields it sets and scans every
      record only when it sets none. Every candidate is still checked for
      visibility, the query and runtime policy, so expiry stays lazy.
    - Runtime verdicts: record key -> allowed. A runtime verdict depends only
      on the record and the policy set, never on the clock. ``_store`` drops
      the key's entry, ``set_policies`` clears them all, and entries are
      filled by the first resolve that needs them.

    In front of both sits the answer cache: query -> (since, until, records),
    the answer ``resolve`` returned at clock ``since``, filtered, sorted and
    grouped for ``latest``. It is served for a clock in ``[since, until)``.
    ``until`` is the earliest ``serve_until + 1`` of any hit (taken before
    ``latest`` drops older versions) and ``serve_from`` of any candidate not
    yet servable; no other time bound is needed, as runtime verdicts do not
    depend on the clock. Every ``_store`` (register, renew, revoke, sweep,
    replay, snapshot load) and ``set_policies`` drop the whole cache. An
    answer is computed and stored under the same hold as its candidate walk,
    so no write lands between the two. The cache holds at most
    ``ANSWER_CACHE_REFS`` references, counting ``ANSWER_ENTRY_REFS`` more for
    each answer, and evicts its oldest answers first.

    ``verified`` is the ``validate_chain`` memo for register and attest: the
    certificates whose signatures this process has verified. Its values are
    weak references, so an entry lives exactly while something holds its
    certificate. A registered record holds the memo's own objects, so the
    memo keeps the certificates of the stored records and of the requests
    still being served, and no code drops entries. Its contents never change
    a verdict, only how many signatures are verified. Recovery verifies
    nothing, so it adds nothing.
    """

    def __init__(
        self,
        policies=(),
        trust_anchors=(),
        record_ttl_seconds: int = DEFAULT_RECORD_TTL_S,
        log: EventLog | None = None,
        observe=_ignore,
    ):
        self.record_ttl_seconds = record_ttl_seconds
        self.trust_anchors = tuple(trust_anchors)
        self._policies = tuple(policies)
        self._log = log
        # observe(operation, milliseconds), the sink of the registry's Timer
        # blocks: the chain_validation and policy_eval histograms, never
        # whole endpoint bodies mislabeled as core operations.
        self._observe = observe
        self._lock = threading.Lock()
        self._records: dict[str, AgentRecord] = {}
        self._postings: dict[str, dict[str, set[str]]] = {f: {} for f in INDEXED_FIELDS}
        self._verdicts: dict[str, bool] = {}
        self._answers: OrderedDict[NameQuery, tuple[int, float, tuple[AgentRecord, ...]]] = \
            OrderedDict()
        self._answer_refs = 0
        self.verified: weakref.WeakValueDictionary[tuple[bytes, bytes], Certificate] = \
            weakref.WeakValueDictionary()
        self.last_seq = 0

    # -- policies ------------------------------------------------------------

    @property
    def policies(self):
        return self._policies

    def set_policies(self, policies) -> None:
        """Atomic swap of the whole policy set. An in-process API: the server
        loads its policies once, at start, and never calls it."""
        with self._lock:
            self._policies = tuple(policies)
            self._verdicts.clear()
            self._drop_answers()

    # -- index maintenance ---------------------------------------------------

    def _index_add(self, key: str, name: AnsName) -> None:
        for field, postings in self._postings.items():
            postings.setdefault(getattr(name, field), set()).add(key)

    def _index_remove(self, key: str, name: AnsName) -> None:
        for field, postings in self._postings.items():
            value = getattr(name, field)
            members = postings.get(value)
            if members is None:
                continue
            members.discard(key)
            if not members:
                del postings[value]

    def _drop_answers(self) -> None:
        """Forget every cached answer after a write; callers hold the lock."""
        self._answers.clear()
        self._answer_refs = 0

    def _store(self, key: str, record: AgentRecord | None) -> None:
        """Put a record under its key, or remove the key's record when
        ``record`` is None, keeping the posting lists (which hold only
        non-revoked records), the verdict memo and the answer cache in step.
        Every record under one key has the same name, so only a status change
        or a removal moves it."""
        self._drop_answers()
        self._verdicts.pop(key, None)
        existing = self._records.get(key)
        was_listed = existing is not None and existing.status == STATUS_ACTIVE
        listed = record is not None and record.status == STATUS_ACTIVE
        if was_listed and not listed:
            self._index_remove(key, existing.name)
        elif listed and not was_listed:
            self._index_add(key, record.name)
        if record is None:
            del self._records[key]
        else:
            self._records[key] = record

    def _append(self, kind: str, payload: bytes, at: int) -> None:
        """Log an event whose payload is given as canonical bytes. Keys in
        sorted order around canonical values make the line byte-identical to
        ``canonical_bytes`` of the event's document."""
        seq = self.last_seq + 1
        if self._log is not None:
            self._log.append_line(b'{"at":%d,"kind":"%s","payload":%s,"seq":%d}'
                                  % (at, kind.encode("ascii"), payload, seq))
        self.last_seq = seq

    @staticmethod
    def _logged_record(event: RegistryEvent, line: bytes | None) -> bytes | None:
        """The record's bytes inside a ``Registered`` line, if the line is in
        exactly the layout ``_append`` writes, else None. The slice between
        the fixed prefix and suffix is then the record's canonical text as it
        was logged, duplicate JSON keys aside."""
        if line is None or len(event.payload) != 1:
            return None
        prefix = b'{"at":%d,"kind":"Registered","payload":{"record":' % event.at
        suffix = b'},"seq":%d}\n' % event.seq
        if line.startswith(prefix) and line.endswith(suffix):
            return line[len(prefix):-len(suffix)]
        return None

    # -- write operations ----------------------------------------------------

    @staticmethod
    def _subject_from_record(record: AgentRecord) -> PolicySubject:
        agent = record.chain.agent
        return PolicySubject.of(record.name, (c.capability for c in record.commitments),
                                record.namespace, agent.not_after - agent.not_before)

    def register(self, request: RegistrationRequest, now: int) -> AgentRecord:
        """Validate and store a registration.

        Validation order: name parse, chain validation, request signature,
        name/certificate consistency, admission policy, uniqueness. A
        same-name re-registration by the same DID replaces the record, which
        is how certificate rotation lands.
        """
        try:
            parsed = names.parse(request.name_text)
        except AnsError as exc:
            raise AnsError(INVALID_NAME, f"request name rejected: {exc.message}") from exc

        with Timer(self._observe, "chain_validation"):
            validation = validate_chain(request.chain, self.trust_anchors, now, self.verified)
        validation.raise_if_invalid()

        agent_cert = request.chain.agent
        if not verify_signature(
            agent_cert.public_key, request.signature, canonical_bytes(request.signing_payload())
        ):
            raise AnsError(BAD_SIGNATURE, "registration signature does not verify")

        if agent_cert.subject_name is None or agent_cert.subject_name != parsed:
            raise AnsError(NAME_MISMATCH, "certificate subject name does not match request name")
        names.validate_label(request.namespace, "namespace")
        cert_commitments = {c.capability: c.commitment_key for c in agent_cert.capability_commitments}
        requested = {c.capability: c.commitment_key for c in request.commitments}
        if requested != cert_commitments:
            raise AnsError(NAME_MISMATCH, "request commitments differ from certificate extensions")
        if parsed.capability not in cert_commitments:
            raise AnsError(
                NAME_MISMATCH,
                f"certificate carries no commitment for name capability {parsed.capability!r}",
            )

        record = AgentRecord(
            name=parsed,
            did=agent_cert.subject_did,
            endpoint=request.endpoint,
            chain=self._memo_chain(request.chain),
            commitments=tuple(sorted(request.commitments, key=lambda c: c.capability)),
            namespace=request.namespace,
            registered_at=now,
            expires_at=now + self.record_ttl_seconds,
            status=STATUS_ACTIVE,
        )
        payload = b'{"record":%s}' % record.doc_bytes

        with self._lock:
            ctx = EvaluationContext(self._subject_from_record(record), PHASE_ADMISSION, now)
            with Timer(self._observe, "policy_eval"):
                decision = evaluate(ctx, self._policies)
            if not decision.allowed:
                raise AnsError(POLICY_DENIED, "registration denied by policy",
                               details={"explain": explain(decision)})
            key = parsed.render()
            existing = self._records.get(key)
            if (
                existing is not None
                and existing.status == STATUS_ACTIVE
                and now <= existing.expires_at
                and existing.did != record.did
            ):
                raise AnsError(DUPLICATE_AGENT, f"{key} is already registered to another DID")
            self._append(EVENT_REGISTERED, payload, now)
            self._store(key, record)
        return record

    def _memo_chain(self, chain: CertificateChain) -> CertificateChain:
        """A chain that ``validate_chain`` passed, made of the verified
        memo's objects: each certificate is swapped for the field-equal one
        its entry holds, or becomes the entry if it has none. The record that
        keeps the chain then keeps its entries alive, and records registered
        over the wire share one object per issuer, as recovered ones do."""
        certs = []
        for cert, issuer in chain.links():
            known = self.verified.setdefault((issuer.public_key, cert.signature), cert)
            certs.append(known if known is cert or known == cert else cert)
        return CertificateChain(*certs)

    def _lookup(self, name_text: str) -> AgentRecord:
        record = self._records.get(name_text)
        if record is None:
            raise AnsError(UNKNOWN_AGENT, f"no record for {name_text}")
        return record

    def renew(self, name_text: str, ts: int, signature: bytes, now: int) -> AgentRecord:
        """Extend a record's TTL. The owner signs (name, timestamp); the
        timestamp must be within the control window of the server clock."""
        with self._lock:
            record = self._lookup(name_text)
            if record.status == STATUS_REVOKED:
                raise AnsError(REVOKED, f"{name_text} is revoked")
            bad = window_error(record.chain, now)
            if bad is not None:
                bad.raise_if_invalid()
            if abs(now - ts) > CONTROL_TS_WINDOW_S:
                raise AnsError(BAD_SIGNATURE, "renewal timestamp outside acceptance window")
            payload = canonical_bytes(renewal_payload(name_text, ts))
            if not verify_signature(record.chain.agent.public_key, signature, payload):
                raise AnsError(BAD_SIGNATURE, "renewal signature does not verify")
            renewed = replace(record, expires_at=now + self.record_ttl_seconds)
            self._append(EVENT_RENEWED, canonical_bytes(
                {"name": name_text, "expires_at": renewed.expires_at}), now)
            self._store(name_text, renewed)
        return renewed

    def revoke(self, name_text: str, ts: int, signature: bytes, now: int) -> None:
        """Mark a record revoked. Accepts a signature by the record's own key
        or by its issuing intermediate or root. Idempotent."""
        with self._lock:
            record = self._lookup(name_text)
            if abs(now - ts) > CONTROL_TS_WINDOW_S:
                raise AnsError(BAD_SIGNATURE, "revocation timestamp outside acceptance window")
            payload = canonical_bytes(revocation_payload(name_text, ts))
            authorized = (
                record.chain.agent.public_key,
                record.chain.intermediate.public_key,
                record.chain.root.public_key,
            )
            if not any(verify_signature(key, signature, payload) for key in authorized):
                raise AnsError(BAD_SIGNATURE, "revocation signature does not verify")
            if record.status == STATUS_REVOKED:
                return
            self._append(EVENT_REVOKED, canonical_bytes({"name": name_text}), now)
            self._store(name_text, replace(record, status=STATUS_REVOKED))

    # -- read operations -----------------------------------------------------

    def _visible(self, record: AgentRecord, now: int) -> bool:
        """Active, unexpired and inside all three certificate windows."""
        return (record.status == STATUS_ACTIVE
                and record.serve_from <= now <= record.serve_until)

    def _runtime_allowed(self, key: str, record: AgentRecord, now: int) -> bool:
        """Runtime policy verdict for the record stored under ``key``,
        memoized; callers hold the lock."""
        allowed = self._verdicts.get(key)
        if allowed is None:
            ctx = EvaluationContext(self._subject_from_record(record), PHASE_RUNTIME, now)
            with Timer(self._observe, "policy_eval"):
                allowed = evaluate(ctx, self._policies).allowed
            self._verdicts[key] = allowed
        return allowed

    def resolve(self, query: NameQuery, now: int) -> list[AgentRecord]:
        """Active, unexpired, policy-allowed records matching the query,
        sorted by version descending then name ascending: the hits are sorted
        once by key (the rendered name), then stably by version. ``latest``
        keeps, in each (agent_id, capability, provider, extension) group,
        the hits whose version equals that of the group's first, so ``v1.2``
        and ``v1.2.0`` both stay when they are the highest. The walk, the
        sort, the grouping and the caching of the answer happen under one
        hold of the lock. A repeated query is answered from the answer cache
        while no write intervenes and the clock stays inside the answer's
        window; each call returns a fresh list."""
        with self._lock:
            cached = self._answers.get(query)
            if cached is not None and cached[0] <= now < cached[1]:
                return list(cached[2])
            lists = [self._postings[field].get(value, ())
                     for field in INDEXED_FIELDS
                     if (value := getattr(query, field)) is not None]
            if lists:
                candidates = [(k, self._records[k]) for k in min(lists, key=len)]
            else:
                candidates = self._records.items()
            until = math.inf
            hits = []
            for k, r in candidates:
                if self._visible(r, now):
                    if names.matches(r.name, query) and self._runtime_allowed(k, r, now):
                        hits.append((k, r))
                        if r.serve_until < until:
                            until = r.serve_until + 1
                elif r.status == STATUS_ACTIVE and now < r.serve_from < until:
                    until = r.serve_from
            hits.sort(key=lambda kr: kr[0])
            hits.sort(key=lambda kr: kr[1].name.version.sort_key(), reverse=True)
            records = [r for _, r in hits]
            if query.version_req is not None and query.version_req.kind == names.LATEST:
                # group -> the version of its first, and so highest, hit
                top: dict[tuple, tuple[int, int, int]] = {}
                records = [r for r in records if r.name.version.sort_key() == top.setdefault(
                    (r.name.agent_id, r.name.capability, r.name.provider, r.name.extension),
                    r.name.version.sort_key())]
            self._cache_answer(query, now, until, tuple(records))
        return records

    def _cache_answer(self, query: NameQuery, since: int, until: float,
                      answer: tuple[AgentRecord, ...]) -> None:
        """Store an answer, evicting the oldest until the references fit;
        callers hold the lock."""
        refs = len(answer) + ANSWER_ENTRY_REFS
        if refs > ANSWER_CACHE_REFS:
            return
        replaced = self._answers.pop(query, None)
        if replaced is not None:
            self._answer_refs -= len(replaced[2]) + ANSWER_ENTRY_REFS
        while self._answer_refs + refs > ANSWER_CACHE_REFS:
            _, (_, _, evicted) = self._answers.popitem(last=False)
            self._answer_refs -= len(evicted) + ANSWER_ENTRY_REFS
        self._answers[query] = (since, until, answer)
        self._answer_refs += refs

    def sweep_expired(self, now: int) -> int:
        """Drop expired records from memory, each through ``_store``, under
        one hold of the lock. Resolution already excludes them lazily; this
        only reclaims space, so it appends no event."""
        with self._lock:
            expired = [k for k, r in self._records.items() if now > r.expires_at]
            for key in expired:
                self._store(key, None)
        return len(expired)

    def get_active(self, name_text: str, now: int) -> AgentRecord | None:
        with self._lock:
            record = self._records.get(name_text)
        if record is not None and self._visible(record, now):
            return record
        return None

    def active_records(self, now: int) -> list[AgentRecord]:
        with self._lock:
            return [r for r in self._records.values() if self._visible(r, now)]

    def all_records(self) -> list[AgentRecord]:
        with self._lock:
            return list(self._records.values())

    def audit_index(self) -> bool:
        """Consistency audit: every posting list must exactly mirror the name
        fields of the active (non-revoked) records."""
        with self._lock:
            expected: dict[str, dict[str, set[str]]] = {f: {} for f in INDEXED_FIELDS}
            for key, record in self._records.items():
                if record.status != STATUS_ACTIVE:
                    continue
                for field, postings in expected.items():
                    postings.setdefault(getattr(record.name, field), set()).add(key)
            return expected == self._postings

    # -- persistence ---------------------------------------------------------

    def snapshot_doc(self) -> dict:
        with self._lock:
            return {
                "last_seq": self.last_seq,
                "records": [r.to_doc() for r in self._records.values()],
            }

    def write_snapshot(self, path: str) -> None:
        doc = self.snapshot_doc()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _apply_event(self, event: RegistryEvent, decoder: RecordDecoder,
                     line: bytes | None) -> None:
        """Fold one event into the state. ``line`` is the event's logged text,
        as ``EventLog.read_numbered`` yields it."""
        if event.kind == EVENT_REGISTERED:
            record = decoder.record(event.payload["record"], self._logged_record(event, line))
            self._store(record.name.render(), record)
        elif event.kind == EVENT_RENEWED:
            key = event.payload["name"]
            self._store(key, replace(self._records[key],
                                     expires_at=int(event.payload["expires_at"])))
        elif event.kind == EVENT_REVOKED:
            key = event.payload["name"]
            self._store(key, replace(self._records[key], status=STATUS_REVOKED))
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")
        self.last_seq = event.seq

    def _load_snapshot(self, raw: bytes, decoder: RecordDecoder) -> None:
        doc = json.loads(raw.decode("utf-8"))
        self.last_seq = int(doc["last_seq"])
        for record_doc in doc["records"]:
            record = _recovered("snapshot record", decoder.record, record_doc)
            self._store(record.name.render(), record)

    @classmethod
    def recover(
        cls,
        policies=(),
        trust_anchors=(),
        record_ttl_seconds: int = DEFAULT_RECORD_TTL_S,
        log_path: str | None = None,
        snapshot_path: str | None = None,
        fsync: bool = True,
        observe=_ignore,
    ) -> "Registry":
        """Rebuild state from snapshot plus event-log suffix, then reopen the
        log for appends. Raises LOG_CORRUPT on gaps or parse failures.

        Each event is applied as it is read. The snapshot and the log share
        one ``RecordDecoder``, whose issuer table decodes each distinct
        intermediate and root document once, so recovered records share
        their issuer objects; each agent certificate decodes on its own.

        A torn final line (no newline) is skipped, then cut off the file when
        the log is reopened for appends, so recovery yields the state of the
        last whole event.

        Recovery trusts the log: it verifies no signatures, and it serves the
        bytes it logged verbatim. A record from a ``Registered`` line in the
        layout ``_append`` writes keeps that line's text of the record as its
        ``doc_bytes``, so resolve replies carry it without encoding it again.
        A line in any other layout, a snapshot record, and a record that a
        ``Renewed`` or ``Revoked`` event replaces encode themselves on first
        use.
        """
        registry = cls(policies=policies, trust_anchors=trust_anchors,
                       record_ttl_seconds=record_ttl_seconds, log=None, observe=observe)
        decoder = RecordDecoder()
        if snapshot_path is not None and os.path.exists(snapshot_path):
            read_doc(snapshot_path, "snapshot",
                     lambda raw: registry._load_snapshot(raw, decoder), LOG_CORRUPT)
        if log_path is not None and os.path.exists(log_path):
            for lineno, event, line in EventLog.read_numbered(log_path,
                                                               after_seq=registry.last_seq):
                _recovered(f"{event.kind!r} event at line {lineno}",
                           lambda event: registry._apply_event(event, decoder, line), event,
                           {"last_good_seq": registry.last_seq, "line": lineno})
        if log_path is not None:
            registry._log = EventLog(log_path, fsync=fsync)
        return registry

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
