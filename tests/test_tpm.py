import random

import pytest

from pseudorate import crypto
from pseudorate.tpm import TpmInstance, WrappedKey

from support import certify_fresh_key, certify_with, raises_code

# every test runs with the module's signing, key derivation and key wrapping
# on each backend
pytestmark = pytest.mark.usefixtures("backend")


def make_blob(ek_public: bytes, aik_public: bytes, nonce: bytes = b"n" * 16) -> bytes:
    """Build an activation blob the way the certification authority does."""
    group = crypto.generate_keypair(seed=b"group")
    cred = certify_with(group, aik_public, {"group": "1"})
    plaintext = crypto.encode_activation_payload(aik_public, cred, nonce)
    return crypto.seal(ek_public, plaintext)


def test_make_identity_starts_unactivated():
    tpm = TpmInstance()
    handle, public = tpm.make_identity()
    with raises_code("not-activated"):
        certify_fresh_key(tpm, handle)
    assert crypto.verify(public, crypto.ISSUANCE_NONCE_DOMAIN + b"n", tpm.sign_issuance_nonce(handle, b"n"))


def test_identity_publics_are_fresh():
    tpm = TpmInstance()
    _, pub1 = tpm.make_identity()
    _, pub2 = tpm.make_identity()
    assert pub1 != pub2


def test_handles_monotonic_never_reused():
    tpm = TpmInstance()
    h1, _ = tpm.make_identity()
    h2, _ = tpm.make_identity()
    h3 = tpm.load_key(tpm.cmk_create_key())
    assert h1 < h2 < h3


def test_activation_round_trip():
    tpm = TpmInstance()
    handle, public = tpm.make_identity()
    cred = tpm.activate_identity(handle, make_blob(tpm.ek_public, public))
    assert certify_fresh_key(tpm, handle).issuer_public == public
    assert cred.entity == public


def test_activation_blob_for_other_platform_rejected():
    tpm, other = TpmInstance(), TpmInstance()
    handle, public = tpm.make_identity()
    blob = make_blob(other.ek_public, public)
    with raises_code("wrong-platform"):
        tpm.activate_identity(handle, blob)
    with raises_code("not-activated"):
        certify_fresh_key(tpm, handle)


def test_activation_blob_replay_rejected():
    tpm = TpmInstance()
    handle, public = tpm.make_identity()
    blob = make_blob(tpm.ek_public, public)
    tpm.activate_identity(handle, blob)
    with raises_code("already-activated"):
        tpm.activate_identity(handle, blob)


@pytest.mark.parametrize("target, code", [("own key", "already-activated"), ("other key", "aik-mismatch"),
                                          ("other platform", "wrong-platform")])
def test_a_used_blob_is_refused_wherever_it_is_replayed(target, code):
    """The module keeps no list of used blobs: the activated flag, the
    blob's identity key and the endorsement key it is sealed to refuse every
    replay."""
    tpm, other = TpmInstance(), TpmInstance()
    handle, public = tpm.make_identity()
    blob = make_blob(tpm.ek_public, public)
    tpm.activate_identity(handle, blob)
    module = other if target == "other platform" else tpm
    replay_to = handle if target == "own key" else module.make_identity()[0]
    with raises_code(code):
        module.activate_identity(replay_to, blob)


def test_activation_blob_for_other_identity_rejected():
    tpm = TpmInstance()
    handle, _ = tpm.make_identity()
    _, other_public = tpm.make_identity()
    blob = make_blob(tpm.ek_public, other_public)
    with raises_code("aik-mismatch"):
        tpm.activate_identity(handle, blob)


def test_activation_on_non_identity_handle_rejected():
    tpm = TpmInstance()
    csk = tpm.load_key(tpm.cmk_create_key())
    with raises_code("invalid-handle"):
        tpm.activate_identity(csk, b"anything")


def test_garbage_blob_is_wrong_platform_not_crash():
    tpm = TpmInstance()
    handle, _ = tpm.make_identity()
    with raises_code("wrong-platform"):
        tpm.activate_identity(handle, b"\x00" * 64)


def test_wrapped_key_round_trip():
    tpm = TpmInstance()
    wrapped = tpm.cmk_create_key()
    handle = tpm.load_key(wrapped)
    signature = tpm.sign_with_key(handle, b"payload")
    assert crypto.verify(wrapped.public, b"payload", signature)


def test_wrapped_key_foreign_load_rejected():
    tpm, other = TpmInstance(), TpmInstance()
    wrapped = tpm.cmk_create_key()
    with raises_code("foreign-blob"):
        other.load_key(wrapped)


def test_wrapped_key_from_a_same_seed_twin_is_foreign():
    """The twin holds the same wrap key, so the blob decrypts there, but the
    twin never created that key."""
    tpm, twin = TpmInstance(rng=random.Random(9)), TpmInstance(rng=random.Random(9))
    wrapped = tpm.cmk_create_key()
    with raises_code("foreign-blob"):
        twin.load_key(wrapped)


def test_wrapped_key_malformed_blob():
    tpm = TpmInstance()
    wrapped = tpm.cmk_create_key()
    with raises_code("malformed-blob"):
        tpm.load_key(WrappedKey(public=wrapped.public, private_blob=b"xx"))


@pytest.mark.parametrize("part", ["nonce", "ciphertext", "tag", "public"])
def test_a_tampered_wrapped_key_is_foreign(part):
    """One flipped bit in the wrap's nonce, ciphertext, tag or associated
    data (the public key) and the instance that made the key refuses it."""
    tpm = TpmInstance()
    wrapped = tpm.cmk_create_key()
    blob, public = bytearray(wrapped.private_blob), bytearray(wrapped.public)
    target, at = {"nonce": (blob, 0), "ciphertext": (blob, 12), "tag": (blob, -1), "public": (public, 0)}[part]
    target[at] ^= 0x01
    with raises_code("foreign-blob"):
        tpm.load_key(WrappedKey(public=bytes(public), private_blob=bytes(blob)))


def test_wrapped_blob_contains_no_private_bytes():
    rng = random.Random(5)
    tpm = TpmInstance(rng=rng)
    # recreate the pair deterministically to learn the private half
    probe = TpmInstance(rng=random.Random(5))
    wrapped = tpm.cmk_create_key()
    shadow = probe.cmk_create_key()
    assert wrapped.public == shadow.public
    handle = probe.load_key(shadow)
    private = probe._keys[handle].pair.private
    assert private not in wrapped.private_blob
    assert private.hex().encode() not in wrapped.private_blob


def test_load_twice_same_material():
    tpm = TpmInstance()
    wrapped = tpm.cmk_create_key()
    h1, h2 = tpm.load_key(wrapped), tpm.load_key(wrapped)
    assert h1 != h2
    for handle in (h1, h2):
        assert crypto.verify(wrapped.public, b"p", tpm.sign_with_key(handle, b"p"))


def test_certify_requires_activation():
    tpm = TpmInstance()
    aik, public = tpm.make_identity()
    csk = tpm.load_key(tpm.cmk_create_key())
    with raises_code("not-activated"):
        tpm.certify_key(aik, csk)
    tpm.activate_identity(aik, make_blob(tpm.ek_public, public))
    cred = tpm.certify_key(aik, csk)
    assert crypto.verify_credential(cred)
    assert cred.issuer_public == public
    assert cred.meta["statement"] == "key-held-in-shielded-location-never-revealed"


def test_certify_cross_instance_handle_rejected():
    tpm, other = TpmInstance(), TpmInstance()
    aik, public = tpm.make_identity()
    tpm.activate_identity(aik, make_blob(tpm.ek_public, public))
    foreign_csk = other.load_key(other.cmk_create_key())
    with raises_code("invalid-handle"):
        tpm.certify_key(aik, foreign_csk)


def test_identity_key_never_signs_payloads():
    tpm = TpmInstance()
    aik, public = tpm.make_identity()
    tpm.activate_identity(aik, make_blob(tpm.ek_public, public))
    for payload in (b"", b"r", b"x" * 100, crypto.ISSUANCE_NONCE_DOMAIN + b"n"):
        with raises_code("forbidden-aik-signing"):
            tpm.sign_with_key(aik, payload)


def test_endorsement_key_never_signs():
    tpm = TpmInstance()
    with raises_code("forbidden-ek-signing"):
        tpm.sign_with_key(0, b"payload")


def test_unknown_handle():
    tpm = TpmInstance()
    with raises_code("invalid-handle"):
        tpm.sign_with_key(77, b"payload")


def test_issuance_nonce_signing_allowed_before_activation():
    tpm = TpmInstance()
    handle, public = tpm.make_identity()
    nonce = b"challenge-nonce"
    signature = tpm.sign_issuance_nonce(handle, nonce)
    assert crypto.verify(public, crypto.ISSUANCE_NONCE_DOMAIN + nonce, signature)


def test_issuance_nonce_needs_identity_key():
    tpm = TpmInstance()
    csk = tpm.load_key(tpm.cmk_create_key())
    with raises_code("invalid-handle"):
        tpm.sign_issuance_nonce(csk, b"n")


def test_emitted_surface_contains_no_private_bytes():
    """Everything the module hands out, searched for every private key."""
    rng = random.Random(11)
    tpm = TpmInstance(rng=rng)
    emitted = [tpm.ek_public]
    aik, aik_pub = tpm.make_identity()
    emitted.append(aik_pub)
    blob = make_blob(tpm.ek_public, aik_pub)
    cred = tpm.activate_identity(aik, blob)
    emitted.append(cred.to_bytes())
    wrapped = tpm.cmk_create_key()
    emitted += [wrapped.public, wrapped.private_blob]
    csk = tpm.load_key(wrapped)
    emitted.append(tpm.certify_key(aik, csk).to_bytes())
    emitted.append(tpm.sign_with_key(csk, b"payload"))
    emitted.append(tpm.sign_issuance_nonce(aik, b"nonce"))

    surface = b"||".join(emitted)
    privates = [tpm._ek.pair.private, tpm._wrap_key]
    privates += [k.pair.private for k in tpm._keys.values()]
    privates += [pair.private for pair in tpm._created.values()]
    for secret in privates:
        assert secret not in surface
        assert secret.hex().encode() not in surface
