import random
import threading

import pytest

from ans.attestation import (
    AttestationResult,
    CapabilityProof,
    ChallengeStore,
    create_capability,
    prove,
    verify,
)
from ans.canonical import canonical_json
from ans.errors import AnsError
from ans.identity import KeyPair
from conftest import NOW, make_identity, make_name


@pytest.fixture()
def actor(ca):
    identity = make_identity(ca, make_name(1, capability="database-access"))
    store = ChallengeStore()
    return identity, store


def _commitment(identity, capability):
    return next(c for c in identity.commitments() if c.capability == capability)


def test_prove_verify_round_trip(actor, ca):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    proof = prove(challenge, identity.capabilities["database-access"],
                  identity.identity_keys, identity.name, NOW)
    result = verify(proof, _commitment(identity, "database-access"),
                    identity.chain, ca.anchors, store, NOW)
    assert result.granted, result


def test_distinct_commitment_keys():
    _, one = create_capability("database-access")
    _, two = create_capability("database-access")
    assert one.commitment_key != two.commitment_key


def test_commitment_serialization_has_no_private_material():
    secret, commitment = create_capability("database-access")
    doc = canonical_json(commitment.to_doc())
    assert secret.keypair.private_key.hex() not in doc


def test_challenges_fresh_and_recorded():
    store = ChallengeStore()
    a = store.issue(make_name(0), NOW)
    b = store.issue(make_name(0), NOW)
    assert a.nonce != b.nonce
    assert a.expires_at == a.issued_at + 60
    assert len(store) == 2


def test_challenge_store_caps_entries():
    store = ChallengeStore(ttl_seconds=60, max_entries=50)
    for i in range(80):
        store.issue(make_name(0), NOW + i)
    assert len(store) <= 50


def test_challenge_store_evicts_expired_then_oldest():
    """At the cap, expired entries go first and then the oldest; the store
    never holds more than its cap, and a consumed nonce stays consumed."""
    store = ChallengeStore(ttl_seconds=10, max_entries=8)

    def issue(now):
        challenge = store.issue(make_name(0), now)
        assert len(store) <= 8
        return challenge.nonce

    early = [issue(NOW) for _ in range(5)]  # expire at NOW + 10
    late = [issue(NOW + 5) for _ in range(3)]  # expire at NOW + 15
    assert store.consume(late[0]).nonce == late[0]
    middle = issue(NOW + 6)
    assert list(store._outstanding) == early + late[1:] + [middle]  # 8: full
    at_ten = issue(NOW + 10)  # expiring at the clock is not yet expired
    assert list(store._outstanding) == early[1:] + late[1:] + [middle, at_ten]
    after = issue(NOW + 11)  # the four early ones left have expired, nothing else goes
    assert list(store._outstanding) == late[1:] + [middle, at_ten, after]
    more = [issue(NOW + 12) for _ in range(3)]
    assert len(store) == 8
    last = issue(NOW + 12)  # none expired: only the oldest goes
    assert list(store._outstanding) == [late[2], middle, at_ten, after, *more, last]
    for nonce in (late[0], *early, late[1]):
        assert store.consume(nonce) is None


def test_challenge_store_eviction_matches_a_full_scan():
    """For a clock that never goes backwards, popping from the front evicts
    exactly what the former scan did: every expired entry, then the oldest."""
    rng = random.Random(71)
    store = ChallengeStore(ttl_seconds=20, max_entries=16)
    model: dict[bytes, int] = {}  # nonce -> expires_at, in issue order
    now = NOW
    for _ in range(2000):
        now += rng.choice((0, 0, 1, 3))
        if model and rng.random() < 0.3:
            nonce = rng.choice(list(model))
            del model[nonce]
            assert store.consume(nonce) is not None
            continue
        if len(model) >= 16:
            for nonce in [n for n, expires in model.items() if expires < now]:
                del model[nonce]
            while len(model) >= 16:
                del model[next(iter(model))]
        challenge = store.issue(make_name(0), now)
        model[challenge.nonce] = challenge.expires_at
        assert list(store._outstanding) == list(model)


def test_prove_rejects_expired_challenge(actor):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    with pytest.raises(AnsError) as err:
        prove(challenge, identity.capabilities["database-access"],
              identity.identity_keys, identity.name, NOW + 61)
    assert err.value.code == "CHALLENGE_EXPIRED"


def test_replayed_proof_denied(actor, ca):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    proof = prove(challenge, identity.capabilities["database-access"],
                  identity.identity_keys, identity.name, NOW)
    commitment = _commitment(identity, "database-access")
    assert verify(proof, commitment, identity.chain, ca.anchors, store, NOW).granted
    second = verify(proof, commitment, identity.chain, ca.anchors, store, NOW)
    assert not second.granted and second.reason == "NONCE_REPLAY"


def test_capability_mismatch(actor, ca):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    proof = prove(challenge, identity.capabilities["database-access"],
                  identity.identity_keys, identity.name, NOW)
    other = _commitment(identity, "telemetry-export")
    result = verify(proof, other, identity.chain, ca.anchors, store, NOW)
    assert result.reason == "CAPABILITY_MISMATCH"


def test_unrelated_capability_secret_denied(actor, ca):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    stranger_secret, _ = create_capability("database-access")
    proof = prove(challenge, stranger_secret, identity.identity_keys, identity.name, NOW)
    result = verify(proof, _commitment(identity, "database-access"),
                    identity.chain, ca.anchors, store, NOW)
    assert result.reason == "BAD_SIGNATURE"


def test_wrong_identity_key_denied(actor, ca):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    proof = prove(challenge, identity.capabilities["database-access"],
                  KeyPair.generate(), identity.name, NOW)
    result = verify(proof, _commitment(identity, "database-access"),
                    identity.chain, ca.anchors, store, NOW)
    assert result.reason == "BAD_SIGNATURE"


def test_expired_challenge_at_verify(actor, ca):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    proof = prove(challenge, identity.capabilities["database-access"],
                  identity.identity_keys, identity.name, NOW)
    result = verify(proof, _commitment(identity, "database-access"),
                    identity.chain, ca.anchors, store, NOW + 120)
    assert result.reason == "CHALLENGE_EXPIRED"


def test_invalid_chain_denied(actor, ca):
    import dataclasses

    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    proof = prove(challenge, identity.capabilities["database-access"],
                  identity.identity_keys, identity.name, NOW)
    bad_agent = dataclasses.replace(identity.chain.agent, serial=0)
    bad_chain = dataclasses.replace(identity.chain, agent=bad_agent)
    result = verify(proof, _commitment(identity, "database-access"),
                    bad_chain, ca.anchors, store, NOW)
    assert result.reason == "CHAIN_INVALID"


def test_soundness_fuzz_wrong_keys(actor, ca):
    identity, store = actor
    commitment = _commitment(identity, "database-access")
    for _ in range(200):
        challenge = store.issue(identity.name, NOW)
        rogue, _ = create_capability("database-access")
        proof = prove(challenge, rogue, identity.identity_keys, identity.name, NOW)
        assert not verify(proof, commitment, identity.chain, ca.anchors, store, NOW).granted


def test_registry_side_artifacts_never_leak_secret_bytes(actor, ca):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    secret = identity.capabilities["database-access"]
    proof = prove(challenge, secret, identity.identity_keys, identity.name, NOW)
    secret_hex = secret.keypair.private_key.hex()
    identity_hex = identity.identity_keys.private_key.hex()
    for artifact in (challenge.to_doc(), proof.to_doc(),
                     [c.to_doc() for c in identity.commitments()],
                     identity.chain.to_doc()):
        rendered = canonical_json(artifact)
        assert secret_hex not in rendered
        assert identity_hex not in rendered


def test_concurrent_replay_single_winner(actor, ca):
    identity, store = actor
    commitment = _commitment(identity, "database-access")
    for _ in range(20):
        challenge = store.issue(identity.name, NOW)
        proof = prove(challenge, identity.capabilities["database-access"],
                      identity.identity_keys, identity.name, NOW)
        results: list[AttestationResult] = []
        lock = threading.Lock()

        def submit():
            outcome = verify(proof, commitment, identity.chain, ca.anchors, store, NOW)
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for r in results if r.granted) == 1
        assert all(r.reason == "NONCE_REPLAY" for r in results if not r.granted)


def test_proof_doc_roundtrip(actor):
    identity, store = actor
    challenge = store.issue(identity.name, NOW)
    proof = prove(challenge, identity.capabilities["database-access"],
                  identity.identity_keys, identity.name, NOW)
    assert CapabilityProof.from_doc(proof.to_doc()) == proof
