import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudorate import crypto
from pseudorate.crypto import (
    Credential,
    CredentialChain,
    VerifyReport,
    generate_keypair,
    generate_sealing_keypair,
    seal,
    unseal,
    verify_chain,
    verify_credential,
)
from pseudorate.encoding import EncodingError, encode
from pseudorate.errors import InvalidArgument
from pseudorate.reputation import RatingPayload, Reject
from pseudorate.wire import decode_request, encode_request

from support import (
    NEUTRAL,
    NEUTRAL_FORGERY,
    VERIFY_BACKENDS,
    all_single_field_mutants,
    certify_with,
    honest_chain,
    make_stack,
    mutate_credential,
    replace,
    small_order_chain,
)


def test_sign_verify_round_trip_empty_message():
    pair = generate_keypair()
    assert crypto.verify(pair.public, b"", crypto.sign(pair, b""))


def test_fresh_pairs_have_distinct_ids():
    assert generate_keypair().public != generate_keypair().public


def test_seeded_generation_is_deterministic():
    a = generate_keypair(seed=b"fixed-seed")
    b = generate_keypair(seed=b"fixed-seed")
    assert a.public == b.public
    assert a.private == b.private
    assert generate_keypair(seed=b"other-seed").public != a.public


def test_signing_and_sealing_seeds_are_independent():
    signing = generate_keypair(seed=b"s")
    sealing = generate_sealing_keypair(seed=b"s")
    assert signing.public != sealing.public


def test_certify_round_trip():
    issuer = generate_keypair()
    cred = certify_with(issuer, b"score=5", {"group": "1"})
    assert verify_credential(cred)


def test_certify_rejects_empty_entity():
    with pytest.raises(InvalidArgument):
        certify_with(generate_keypair(), b"")


def test_signature_bit_flip_rejected():
    cred = certify_with(generate_keypair(), b"score=5")
    for i in range(0, len(cred.signature), 7):
        sig = bytearray(cred.signature)
        sig[i] ^= 0x40
        mutant = Credential(cred.entity, cred.issuer_public, bytes(sig), cred.meta)
        assert not verify_credential(mutant)


def test_meta_tamper_breaks_verification():
    cred = certify_with(generate_keypair(), b"score=5", {"group": "1"})
    tampered = Credential(cred.entity, cred.issuer_public, cred.signature, {"group": "2"})
    assert not verify_credential(tampered)
    added = Credential(cred.entity, cred.issuer_public, cred.signature, {"group": "1", "x": "y"})
    assert not verify_credential(added)


def test_issuer_swap_rejected():
    cred = certify_with(generate_keypair(), b"entity")
    other = generate_keypair()
    assert not verify_credential(Credential(cred.entity, other.public, cred.signature, cred.meta))


def test_malformed_credentials_return_false_not_crash():
    pair = generate_keypair()
    cred = certify_with(pair, b"x")
    weird = [
        Credential(b"", pair.public, cred.signature, {}),
        Credential(b"x", b"short", cred.signature, {}),
        Credential(b"x", pair.public, b"", {}),
        Credential(b"x", pair.public, cred.signature, {"k": 5}),  # type: ignore[dict-item]
    ]
    for mutant in weird:
        assert verify_credential(mutant) is False


def test_all_one_byte_truncations_rejected():
    cred = certify_with(generate_keypair(), b"payload", {"a": "b"})
    blob = cred.to_bytes()
    for cut in range(len(blob)):
        truncated = blob[:cut] + blob[cut + 1 :]
        try:
            mutant = Credential.from_bytes(truncated)
        except EncodingError:
            continue
        assert not verify_credential(mutant)


def test_meta_is_copied_and_frozen_at_construction():
    cred = certify_with(generate_keypair(), b"score=5", {"group": "1"})
    shared = dict(cred.meta)
    copy = Credential(cred.entity, cred.issuer_public, cred.signature, shared)
    sibling = Credential(cred.entity, cred.issuer_public, b"\x00" * 64, copy.meta)
    assert verify_credential(copy)  # computes and caches the signed body
    assert not verify_credential(sibling)
    shared["group"] = "2"
    assert copy.meta == {"group": "1"}  # what it shows is what was signed
    assert verify_credential(copy)
    assert not verify_credential(Credential(cred.entity, cred.issuer_public, cred.signature, shared))
    with pytest.raises(TypeError):
        copy.meta["group"] = "2"  # type: ignore[index]
    assert sibling.meta == {"group": "1"} and sibling.meta is not copy.meta


def test_meta_shared_by_chain_credentials_cannot_be_changed_after_checking():
    _, chain, registry = _stack_chain()
    shared = dict(chain.aik_cred.meta)
    aik = chain.aik_cred
    chained = replace(chain, "aik", Credential(aik.entity, aik.issuer_public, aik.signature, shared))
    assert verify_chain(chained, registry).valid
    shared["group"] = "3"
    assert chained.aik_cred.meta["group"] == "2"
    assert verify_chain(chained, registry).valid
    forged = replace(chain, "aik", Credential(aik.entity, aik.issuer_public, aik.signature, shared))
    assert verify_chain(forged, registry).reason == "bad-signature"


def test_credential_and_chain_bytes_equal_the_encoded_records():
    _, chain, _ = _stack_chain()
    assert chain.to_bytes() == encode(chain.to_record())
    for slot, _field, _mode, mutant in all_single_field_mutants(chain):
        for cred in (mutant.rating_cred, mutant.csk_cred, mutant.aik_cred):
            assert cred.to_bytes() == encode(cred.to_record())
        assert mutant.to_bytes() == encode(mutant.to_record())
    assert CredentialChain.from_bytes(chain.to_bytes()) == chain


credentials = st.builds(
    Credential,
    entity=st.binary(max_size=140),
    issuer_public=st.binary(max_size=40),
    signature=st.binary(max_size=130),
    meta=st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3),
)


@given(
    st.tuples(credentials, credentials, credentials),
    st.builds(
        RatingPayload,
        subject=st.text(max_size=12),
        score=st.integers(-10**6, 10**6),
        nonce=st.binary(max_size=20),
        rs_id=st.text(max_size=8),
        comment=st.text(max_size=30),
    ),
)
def test_records_parsed_from_a_frame_hold_their_encodings(creds, payload):
    """A credential's body and a payload's bytes parsed from their own bytes,
    as an rs/submit frame carries them, are exactly what encoding their fields gives."""
    chain = CredentialChain(*creds)
    frame = encode_request("rs/submit", {"payload": payload.canonical_bytes(), "chain": chain.to_bytes()}, b"c")
    _, body, _ = decode_request(frame)
    parsed = CredentialChain.from_bytes(body["chain"])
    assert parsed == chain
    for cred in (parsed.rating_cred, parsed.csk_cred, parsed.aik_cred):
        assert "body" in vars(cred)  # cut from the chain bytes, not encoded on first use
        assert cred.body == encode({"entity": cred.entity, "issuer": cred.issuer_public, "meta": dict(cred.meta)})
    assert parsed.to_bytes() == chain.to_bytes() == encode(chain.to_record())
    received = RatingPayload.from_bytes(body["payload"])
    assert received == payload and "_canonical" in vars(received)
    assert received.canonical_bytes() == encode(payload.to_record())


def test_credential_bytes_canonical():
    cred = certify_with(generate_keypair(), b"payload", {"a": "b"})
    blob = cred.to_bytes()
    assert Credential.from_bytes(blob).to_bytes() == blob


@given(st.binary(max_size=128), st.binary(min_size=1, max_size=16))
@settings(max_examples=settings().max_examples * 3 // 10)
def test_sign_verify_property(message, suffix):
    pair = generate_keypair(seed=b"prop")
    signature = crypto.sign(pair, message)
    assert crypto.verify(pair.public, message, signature)
    assert not crypto.verify(pair.public, message + suffix, signature)


# -- Ed25519 accept set: one answer from either backend ---------------------

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493  # order of the base point
Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022  # a point of order 8 has y = +-Y8
# the 14 encodings whose y, the low 255 bits, is that of a point of order 1, 2, 4 or 8, or
# such a y plus p; either sign bit
SMALL_ORDER = [(y | sign << 255).to_bytes(32, "little") for y in (0, 1, P - 1, P, P + 1, Y8, P - Y8) for sign in (0, 1)]
UNREDUCED = [(y | sign << 255).to_bytes(32, "little") for y in range(P, 2**255) for sign in (0, 1)]
SIGNERS = [generate_keypair(seed=bytes([i])) for i in range(3)]
HONEST = [(pair.public, m, crypto.sign(pair, m)) for pair in SIGNERS for m in (b"", b"m", bytes(range(256)) * 4)]

needs_sodium = pytest.mark.skipif(VERIFY_BACKENDS["sodium"] is None, reason="libsodium cannot be loaded")


def verdicts(public, message, signature) -> set[bool]:
    """``crypto.verify``'s answers with each backend behind it."""
    saved, answers = crypto._backend, set()
    try:
        for backend in VERIFY_BACKENDS.values():
            crypto._backend = backend
            answers.add(crypto.verify(public, message, signature))
    finally:
        crypto._backend = saved
    return answers


def _refused_cases():
    public, message, signature = HONEST[-1]
    s_plus_l = signature[:32] + (int.from_bytes(signature[32:], "little") + L).to_bytes(32, "little")
    yield "s-plus-l", public, message, s_plus_l
    for i, enc in enumerate(SMALL_ORDER):
        yield f"small-order-key-{i}-neutral-sig", enc, message, NEUTRAL_FORGERY
        yield f"small-order-key-{i}-r-is-key", enc, message, enc + bytes(32)
        yield f"small-order-key-{i}-honest-sig", enc, message, signature
        yield f"small-order-r-{i}", public, message, enc + signature[32:]
        yield f"small-order-r-{i}-zero-s", public, message, enc + bytes(32)
    for i, enc in enumerate(UNREDUCED):
        yield f"unreduced-key-{i}", enc, message, signature
        yield f"unreduced-key-{i}-neutral-sig", enc, message, NEUTRAL_FORGERY
    for name, bad_public, bad_signature in [
        ("short-key", public[:31], signature),
        ("long-key", public + b"\x00", signature),
        ("empty-key", b"", signature),
        ("short-sig", public, signature[:63]),
        ("long-sig", public, signature + b"\x00"),
        ("empty-sig", public, b""),
    ]:
        yield name, bad_public, message, bad_signature
    for kind in (str, bytearray, memoryview):
        as_kind = (lambda b: b.hex()[: len(b)]) if kind is str else kind
        yield f"{kind.__name__}-key", as_kind(public), message, signature
        yield f"{kind.__name__}-message", public, as_kind(message), signature
        yield f"{kind.__name__}-sig", public, message, as_kind(signature)
    yield "none-key", None, message, signature


@needs_sodium
def test_backends_accept_honest_signatures():
    assert [verdicts(*case) for case in HONEST] == [{True}] * len(HONEST)


@needs_sodium
def test_backends_refuse_alike():
    """Small-order keys and R, unreduced keys, S + L, wrong lengths and
    wrong types: False from either backend, and no exception."""
    cases = list(_refused_cases())
    assert len(cases) == 1 + 14 * 5 + 38 * 2 + 6 + 9 + 1
    assert [name for name, *args in cases if verdicts(*args) != {False}] == []


def test_the_refusals_run_before_any_backend(monkeypatch):
    """Each refused case but S + L, which both libraries refuse themselves,
    is False before a backend runs: one that accepts anything is never called."""
    reached = []
    monkeypatch.setattr(crypto, "_backend", lambda *args: reached.append(args) or True)
    cases = [case for case in _refused_cases() if case[0] != "s-plus-l"]
    assert [name for name, *args in cases if crypto.verify(*args)] == []
    assert reached == []
    assert all(crypto.verify(*case) for case in HONEST)


@needs_sodium
@given(st.sampled_from(HONEST), st.sets(st.integers(0, 8 * 96 - 1), min_size=1, max_size=3))
def test_backends_agree_on_bit_flips(honest, bits):
    """Flipped bits anywhere in an honest key and signature, sign bits included."""
    public, message, signature = honest
    blob = bytearray(public + signature)
    for bit in bits:
        blob[bit // 8] ^= 1 << bit % 8
    assert len(verdicts(bytes(blob[:32]), message, bytes(blob[32:]))) == 1


@needs_sodium
@given(st.binary(min_size=32, max_size=32), st.sampled_from(HONEST), st.binary(min_size=64, max_size=64) | st.none())
def test_backends_agree_on_random_keys(public, honest, signature):
    _, message, honest_signature = honest
    assert len(verdicts(public, message, honest_signature if signature is None else signature)) == 1


def test_a_small_order_key_verifies_nothing(verify_backend):
    """Under the neutral point, OpenSSL's verify accepts the forgery for
    every message; crypto.verify refuses it whichever backend runs."""
    for message in (b"", b"any message", crypto.CREDENTIAL_DOMAIN + b"body"):
        assert not crypto.verify(NEUTRAL, message, NEUTRAL_FORGERY)


def test_a_chain_under_small_order_keys_is_a_bad_signature(verify_backend):
    stack = make_stack(5)
    payload = RatingPayload(subject="seller-1", score=5, comment="", nonce=bytes(16), rs_id=stack.rs.rs_id)
    chain = small_order_chain(stack, payload)
    assert verify_chain(chain, {1: stack.pca.group_registry()[1][0]}) == VerifyReport(False, 1, "bad-signature")
    assert stack.rs.submit_rating(payload, chain) == Reject("invalid-chain", "bad-signature")


# -- sealed blobs -------------------------------------------------------------


def test_seal_unseal_round_trip():
    pair = generate_sealing_keypair()
    assert unseal(pair, seal(pair.public, b"secret")) == b"secret"


def test_seeded_seal_bytes_are_pinned():
    # the authority seals each activation blob with a seeded ephemeral key
    pair = generate_sealing_keypair(seed=b"recipient")
    blob = seal(pair.public, b"activation", ephemeral_seed=b"ephemeral")
    assert hashlib.sha256(blob).hexdigest() == "73c961b9ec88ae8107d5b01bafa8cbd4db0ad81731f99a1b8261a805b621403e"
    assert blob[:32] == generate_sealing_keypair(b"ephemeral").public


def test_unseal_with_wrong_key_fails():
    pair, other = generate_sealing_keypair(), generate_sealing_keypair()
    blob = seal(pair.public, b"secret")
    with pytest.raises(crypto.SealError):
        unseal(other, blob)


def test_unseal_rejects_short_blob():
    with pytest.raises(crypto.SealError):
        unseal(generate_sealing_keypair(), b"tiny")


def test_seal_to_a_key_that_is_not_a_sealing_key_fails():
    with pytest.raises(crypto.SealError):
        seal(b"k" * 31, b"secret")


# -- chains -------------------------------------------------------------------


def _stack_chain(seed=1):
    stack = make_stack(seed)
    agent = stack.new_agent("chain")
    ticket, payload, chain = honest_chain(stack, agent, group=2)
    registry = {g: pub for g, (pub, _) in stack.pca.group_registry().items()}
    return stack, chain, registry


def test_honest_chain_valid():
    _, chain, registry = _stack_chain()
    report = verify_chain(chain, registry)
    assert report.valid
    assert report.group == 2
    assert report.reason is None


def test_chain_needs_nonempty_registry():
    """An empty registry names no group: an honest chain is an unknown group,
    and a forged one is still reported by what is wrong with it."""
    _, chain, _ = _stack_chain()
    assert verify_chain(chain, {}) == VerifyReport(valid=False, group=None, reason="unknown-group")
    forged = replace(chain, "rating", mutate_credential(chain.rating_cred, "sig"))
    assert verify_chain(forged, {}).reason == "bad-signature"


def test_csk_credential_from_other_identity_is_link_mismatch():
    stack = make_stack(3)
    agent_a = stack.new_agent("a")
    agent_b = stack.new_agent("b")
    _, _, chain_a = honest_chain(stack, agent_a)
    _, _, chain_b = honest_chain(stack, agent_b)
    registry = {g: pub for g, (pub, _) in stack.pca.group_registry().items()}
    crossed = replace(chain_a, "csk", chain_b.csk_cred)
    report = verify_chain(crossed, registry)
    assert not report.valid
    assert report.reason == "link-mismatch"


def test_unregistered_group_key_reported():
    _, chain, registry = _stack_chain()
    report = verify_chain(chain, {9: crypto.generate_keypair().public})
    assert not report.valid
    assert report.reason == "unknown-group"


def test_group_keys_follow_the_key_not_the_gid():
    _, chain, registry = _stack_chain()
    assert verify_chain(chain, registry).valid
    rekeyed = {**registry, 2: crypto.generate_keypair().public}
    report = verify_chain(chain, rekeyed)
    assert (report.valid, report.reason) == (False, "unknown-group")
    # another authority's registry verifies that authority's chains only
    _, other_chain, other_registry = _stack_chain(seed=2)
    assert other_registry[2] != registry[2]
    assert verify_chain(other_chain, other_registry).valid
    assert verify_chain(other_chain, registry).reason == "unknown-group"
    assert verify_chain(chain, other_registry).reason == "unknown-group"
    # a key registered under two gids names the first of them
    shared = {3: registry[2], 1: registry[1], 2: registry[2]}
    assert verify_chain(chain, shared).group == 3


def test_every_single_field_mutation_invalid():
    _, chain, registry = _stack_chain()
    assert verify_chain(chain, registry).valid
    count = 0
    for slot, fieldname, mode, mutant in all_single_field_mutants(chain):
        report = verify_chain(mutant, registry)
        assert not report.valid, f"mutant survived: {slot}.{fieldname} ({mode})"
        count += 1
    assert count == 36  # 3 credentials x 4 fields x 3 modes


def test_random_bit_flips_never_verify():
    _, chain, registry = _stack_chain()
    blob = chain.to_bytes()
    rng = random.Random(99)
    for _ in range(1000):
        flipped = bytearray(blob)
        pos = rng.randrange(len(flipped))
        flipped[pos] ^= 1 << rng.randrange(8)
        try:
            mutant = CredentialChain.from_bytes(bytes(flipped))
        except EncodingError:
            continue
        assert not verify_chain(mutant, registry).valid
