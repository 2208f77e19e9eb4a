import dataclasses
import hashlib
import os
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from ans import names
from ans.errors import AnsError
from ans.identity import (
    AGENT_VALIDITY_S,
    CapabilityCommitment,
    Certificate,
    CertificateChain,
    INTERMEDIATE_VALIDITY_S,
    KeyPair,
    ROLE_AGENT,
    ROLE_INTERMEDIATE,
    ROLE_ROOT,
    canonical_cert_bytes,
    derive_did,
    issue_certificate,
    remaining_validity,
    self_signed_root,
    validate_chain,
    verify_signature,
)
from conftest import NOW, make_name

DAY = 86400


def build_chain(ca, name=None, validity=AGENT_VALIDITY_S, not_before=None,
                commitments=None, now=NOW):
    keys = KeyPair.generate()
    name = name or make_name(0)
    if commitments is None:
        cap_keys = KeyPair.generate()
        commitments = (CapabilityCommitment(name.capability, cap_keys.public_key),)
    cert = issue_certificate(
        ca.intermediate_keys, ca.intermediate_cert, keys.public_key, ROLE_AGENT,
        validity, subject_name=name, commitments=commitments,
        not_before=not_before, now=now,
    )
    return keys, CertificateChain(cert, ca.intermediate_cert, ca.root_cert)


# -- key pairs and DIDs ------------------------------------------------------


def test_keypair_deterministic_for_seed():
    seed = bytes(range(32))
    assert KeyPair.generate(seed) == KeyPair.generate(seed)


def test_random_keypairs_distinct():
    assert KeyPair.generate().public_key != KeyPair.generate().public_key


def test_keypair_sign_matches_a_fresh_private_key():
    """The cached private-key object signs exactly as one built per call."""
    keys = KeyPair.generate(bytes(range(32)))
    for message in (b"", b"x", os.urandom(100), bytes(5000)):
        fresh = Ed25519PrivateKey.from_private_bytes(keys.private_key).sign(message)
        assert keys.sign(message) == fresh == keys.sign(message)


def test_sign_verify_self_test():
    keys = KeyPair.generate()
    message = b"round trip"
    signature = keys.sign(message)
    assert len(signature) == 64
    assert verify_signature(keys.public_key, signature, message)
    assert not verify_signature(keys.public_key, signature, message + b"!")


def test_did_deterministic_and_formatted():
    keys = KeyPair.generate(b"\x07" * 32)
    assert derive_did(keys.public_key) == derive_did(keys.public_key)
    assert derive_did(keys.public_key).startswith("did:ans:")
    other = KeyPair.generate(b"\x08" * 32)
    assert derive_did(keys.public_key) != derive_did(other.public_key)


def test_did_injective_over_10k_keys():
    rng = random.Random(99)
    seen = set()
    for _ in range(10_000):
        key = rng.getrandbits(256).to_bytes(32, "big")
        seen.add(derive_did(key))
    assert len(seen) == 10_000


# -- issuance ----------------------------------------------------------------


def test_agent_cert_90_day_window(ca):
    _, chain = build_chain(ca, validity=90 * DAY)
    assert chain.agent.not_after - chain.agent.not_before == 7_776_000


def test_intermediate_cannot_issue_intermediate(ca):
    other = KeyPair.generate()
    with pytest.raises(AnsError) as err:
        issue_certificate(ca.intermediate_keys, ca.intermediate_cert, other.public_key,
                          ROLE_INTERMEDIATE, 100, now=NOW)
    assert err.value.code == "ROLE_VIOLATION"


def test_agent_cert_cannot_issue(ca):
    keys, chain = build_chain(ca)
    with pytest.raises(AnsError) as err:
        issue_certificate(keys, chain.agent, KeyPair.generate().public_key,
                          ROLE_AGENT, 100, subject_name=make_name(1), now=NOW)
    assert err.value.code == "ROLE_VIOLATION"


def test_subject_window_must_fit_issuer(ca):
    with pytest.raises(AnsError) as err:
        issue_certificate(
            ca.intermediate_keys, ca.intermediate_cert, KeyPair.generate().public_key,
            ROLE_AGENT, INTERMEDIATE_VALIDITY_S + DAY, subject_name=make_name(0), now=NOW,
        )
    assert err.value.code == "WINDOW_EXCEEDED"


def test_self_signed_root_roundtrip():
    keys = KeyPair.generate()
    root = self_signed_root(keys, now=NOW)
    assert root.issuer_did == root.subject_did
    assert verify_signature(keys.public_key, root.signature, canonical_cert_bytes(root))


# -- chain validation ----------------------------------------------------------


def test_valid_chain_accepted(ca):
    _, chain = build_chain(ca)
    verdict = validate_chain(chain, (ca.root_cert,), NOW)
    assert verdict.ok, verdict.message


def test_flipped_signature_byte_invalidates(ca):
    _, chain = build_chain(ca)
    bad_sig = bytes([chain.agent.signature[0] ^ 0x01]) + chain.agent.signature[1:]
    bad = dataclasses.replace(chain.agent, signature=bad_sig)
    verdict = validate_chain(dataclasses.replace(chain, agent=bad), (ca.root_cert,), NOW)
    assert not verdict.ok and verdict.code == "CHAIN_INVALID"


def test_expired_agent_cert(ca):
    _, chain = build_chain(ca)
    verdict = validate_chain(chain, (ca.root_cert,), chain.agent.not_after + 1)
    assert verdict.code == "CERT_EXPIRED"


def test_not_yet_valid(ca):
    _, chain = build_chain(ca, not_before=NOW + DAY)
    verdict = validate_chain(chain, (ca.root_cert,), NOW)
    assert verdict.code == "CERT_NOT_YET_VALID"


def test_untrusted_root(ca):
    _, chain = build_chain(ca)
    stranger = self_signed_root(KeyPair.generate(), now=NOW)
    verdict = validate_chain(chain, (stranger,), NOW)
    assert verdict.code == "UNTRUSTED_ROOT"


def test_issued_chain_validates_at_issuance_time(ca):
    for i in range(25):
        _, chain = build_chain(ca, name=make_name(i))
        assert validate_chain(chain, (ca.root_cert,), NOW).ok


def _mutations(cert: Certificate):
    yield dataclasses.replace(cert, serial=cert.serial + 1)
    yield dataclasses.replace(cert, subject_did="did:ans:" + "a" * 52)
    yield dataclasses.replace(cert, issuer_did="did:ans:" + "b" * 52)
    yield dataclasses.replace(cert, public_key=os.urandom(32))
    yield dataclasses.replace(cert, not_before=cert.not_before - 1)
    yield dataclasses.replace(cert, not_after=cert.not_after + 1)
    yield dataclasses.replace(cert, signature=os.urandom(64))
    if cert.subject_name is not None:
        yield dataclasses.replace(cert, subject_name=make_name(999))
    if cert.capability_commitments:
        tampered = CapabilityCommitment(
            cert.capability_commitments[0].capability, os.urandom(32))
        yield dataclasses.replace(cert, capability_commitments=(tampered,))


def _warmed_memo(chain, anchors) -> dict:
    verified: dict = {}
    assert validate_chain(chain, anchors, NOW, verified).ok
    assert len(verified) == 3
    return verified


@pytest.mark.parametrize("memo", ["none", "warmed"])
def test_single_field_mutation_fuzz(ca, memo):
    """Every single-field mutation is rejected, also when the memo holds the
    unmutated chain's three certificates."""
    _, chain = build_chain(ca)
    verified = _warmed_memo(chain, (ca.root_cert,)) if memo == "warmed" else None
    count = 0
    for slot in ("agent", "intermediate", "root"):
        for mutated in _mutations(getattr(chain, slot)):
            candidate = dataclasses.replace(chain, **{slot: mutated})
            assert not validate_chain(candidate, (ca.root_cert,), NOW, verified).ok, (slot, mutated)
            count += 1
    assert count >= 20
    if verified is not None:
        assert len(verified) == 3  # no rejected certificate entered the memo


def test_memo_keeps_window_and_anchor_codes(ca):
    """A memo holding the whole chain skips its signatures, never its windows
    or its anchor membership."""
    _, chain = build_chain(ca, validity=DAY)
    verified = _warmed_memo(chain, (ca.root_cert,))
    anchors = (ca.root_cert,)
    assert validate_chain(chain, anchors, NOW, verified).ok
    assert validate_chain(chain, anchors, chain.agent.not_after + 1, verified).code == "CERT_EXPIRED"
    assert validate_chain(chain, anchors, chain.agent.not_before - 1,
                          verified).code == "CERT_NOT_YET_VALID"
    stranger = self_signed_root(KeyPair.generate(), now=NOW)
    assert validate_chain(chain, (stranger,), NOW, verified).code == "UNTRUSTED_ROOT"
    assert len(verified) == 3


def test_memo_gains_nothing_from_a_chain_that_fails(ca):
    """Entries are added only after the whole chain validates: a bad agent
    signature leaves the memo without the intermediate and the root too."""
    _, chain = build_chain(ca)
    bad = dataclasses.replace(chain.agent, signature=os.urandom(64))
    verified: dict = {}
    verdict = validate_chain(dataclasses.replace(chain, agent=bad), (ca.root_cert,), NOW, verified)
    assert verdict.code == "CHAIN_INVALID" and verified == {}
    assert validate_chain(chain, (ca.root_cert,), NOW, verified).ok
    assert set(verified.values()) == {chain.agent, chain.intermediate, chain.root}


def test_memo_hit_is_by_equality_not_identity(ca):
    """A certificate decoded afresh from the same document hits the memo."""
    _, chain = build_chain(ca)
    verified = _warmed_memo(chain, (ca.root_cert,))
    copy = CertificateChain.from_doc(chain.to_doc())
    assert copy.agent is not chain.agent
    assert validate_chain(copy, (ca.root_cert,), NOW, verified).ok
    assert all(any(v is c for c in (chain.agent, chain.intermediate, chain.root))
               for v in verified.values())


# -- remaining validity -----------------------------------------------------------


def test_remaining_validity(ca):
    _, chain = build_chain(ca)
    cert = chain.agent
    assert remaining_validity(cert, cert.not_after) == 0
    assert remaining_validity(cert, cert.not_after + 10) == -10
    at_29_days_left = cert.not_after - 29 * DAY
    assert 0 < remaining_validity(cert, at_29_days_left) < 30 * DAY


# -- canonical serialization -------------------------------------------------------


def test_canonical_bytes_deterministic(ca):
    _, chain = build_chain(ca)
    assert canonical_cert_bytes(chain.agent) == canonical_cert_bytes(chain.agent)
    bumped = dataclasses.replace(chain.agent, serial=chain.agent.serial + 1)
    assert canonical_cert_bytes(bumped) != canonical_cert_bytes(chain.agent)


def test_cert_doc_roundtrip(ca):
    _, chain = build_chain(ca)
    assert Certificate.from_doc(chain.agent.to_doc()) == chain.agent
    assert CertificateChain.from_doc(chain.to_doc()) == chain


GOLDEN_CANONICAL = (
    '{"capability_commitments":[{"capability":"golden-capability","commitment_key":'
    '"481ede772da15785c9e59a086201b8c3f9c307129e3fc6d7f34aa4dfed5814e5"}],'
    '"issuer_did":"did:ans:mw3am46w5weex4a4fqrc3avnub2a6knmgnk5nkjfzaprp5d2e64a",'
    '"not_after":1707776000,"not_before":1700000000,'
    '"public_key":"43cdc023d22d5f9e107d1a0693457d35d1d10eb7d21c721192f56f5de40665d3",'
    '"role":"agent","serial":3,'
    '"subject_did":"did:ans:sr2wdy7liozywlk7pqxwu5htbol2c2fd2a4rnnbycbticeyz7hva",'
    '"subject_name":"a2a://golden-agent.golden-capability.golden-provider.v1.0.prod"}'
)
GOLDEN_SIGNATURE = (
    "67c21cdd54830b3dfa32984c8ff75f762b68f6f64e86a61a01f2e986c0127506"
    "fd8452f7543177a77dac8bd1906dd39940408332d3fc5b5aa103b3925b99b40d"
)
GOLDEN_INTERMEDIATE_PUB = "79b5562e8fe654f94078b112e8a98ba7901f853ae695bed7e0e3910bad049664"


def test_golden_certificate_bytes_and_signature():
    """Frozen vector: fixed seeds must reproduce these exact bytes, and the
    signature must verify through the crypto library directly (independent of
    this package's verify helper)."""
    root = KeyPair.generate(bytes(range(32)))
    inter = KeyPair.generate(bytes(range(1, 33)))
    agent = KeyPair.generate(bytes(range(2, 34)))
    cap = KeyPair.generate(bytes(range(3, 35)))
    now = 1700000000
    root_cert = issue_certificate(root, None, root.public_key, ROLE_ROOT,
                                  3650 * DAY, serial=1, now=now)
    inter_cert = issue_certificate(root, root_cert, inter.public_key, ROLE_INTERMEDIATE,
                                   365 * DAY, serial=2, now=now)
    name = names.parse("a2a://golden-agent.golden-capability.golden-provider.v1.0.prod")
    agent_cert = issue_certificate(
        inter, inter_cert, agent.public_key, ROLE_AGENT, 90 * DAY,
        subject_name=name,
        commitments=(CapabilityCommitment("golden-capability", cap.public_key),),
        serial=3, now=now,
    )
    payload = canonical_cert_bytes(agent_cert)
    assert payload.decode() == GOLDEN_CANONICAL
    assert agent_cert.signature.hex() == GOLDEN_SIGNATURE
    # independent verification path
    Ed25519PublicKey.from_public_bytes(
        bytes.fromhex(GOLDEN_INTERMEDIATE_PUB)
    ).verify(bytes.fromhex(GOLDEN_SIGNATURE), GOLDEN_CANONICAL.encode())
    # and the DID rule is plain sha256 + base32
    digest = hashlib.sha256(agent.public_key).digest()
    import base64
    expected = "did:ans:" + base64.b32encode(digest).decode().rstrip("=").lower()
    assert agent_cert.subject_did == expected
