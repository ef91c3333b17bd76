import hashlib
import random
import re

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
from pseudorate.encoding import EncodingError, check_fields, decode, encode
from pseudorate.errors import InvalidArgument, TicketError
from pseudorate.reputation import RatingPayload, Reject, ReputationSystem
from pseudorate.tpm import TpmInstance
from pseudorate.wire import Router, decode_request, decode_response, encode_request

from support import (
    NEUTRAL,
    NEUTRAL_FORGERY,
    BACKENDS,
    all_single_field_mutants,
    certify_with,
    honest_chain,
    make_stack,
    mutate_credential,
    on_backend,
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


def _reference_credential(record: object) -> tuple:
    check_fields(record, {"entity": bytes, "issuer": bytes, "meta": dict, "sig": bytes}, where="credential")
    if any(type(value) is not str for value in record["meta"].values()):
        raise EncodingError("meta must map str to str")
    body = encode({"entity": record["entity"], "issuer": record["issuer"], "meta": record["meta"]})
    return record["entity"], record["issuer"], record["meta"], record["sig"], body


def _reference_read(data, chain: bool) -> tuple:
    """A credential or chain as the generic decoder and check_fields accept
    it; its body is ``encode`` of the fields without ``sig``."""
    record = decode(data)
    if not chain:
        return _reference_credential(record)
    check_fields(record, {"rating": dict, "csk": dict, "aik": dict}, where="chain")
    return tuple(_reference_credential(record[key]) for key in ("aik", "csk", "rating"))


def _reader_view(cred: Credential) -> tuple:
    # the body must be the one cut from the input, not one encoded on first use
    return cred.entity, cred.issuer_public, dict(cred.meta), cred.signature, vars(cred).get("body")


def _read(data, chain: bool) -> tuple:
    if not chain:
        return _reader_view(Credential.from_bytes(data))
    parsed = CredentialChain.from_bytes(data)
    assert parsed.to_bytes() == bytes(data)
    return tuple(_reader_view(cred) for cred in (parsed.aik_cred, parsed.csk_cred, parsed.rating_cred))


def _outcome(read, data, chain: bool) -> tuple | None:
    """What ``read`` makes of ``data``, or None when it refuses it; a refusal
    that is not an EncodingError fails the test."""
    try:
        return read(data, chain)
    except EncodingError:
        return None


def _assert_read_as_the_reference_does(data, chain: bool) -> None:
    assert _outcome(_read, data, chain) == _outcome(_reference_read, data, chain)


def _credential_bytes(entity: bytes, issuer: bytes, entries: list, sig: bytes, after_sig: bytes = b"") -> bytes:
    meta = b"".join(encode(key) + encode(value) for key, value in entries)
    fields = (encode(entity), encode(issuer), meta, encode(sig), after_sig)
    return b"ds6:entity%ss6:issuer%ss4:metad%ses3:sig%s%se" % fields


def _chain_bytes(aik: bytes, csk: bytes, rating: bytes, after_rating: bytes = b"") -> bytes:
    return b"ds3:aik%ss3:csk%ss6:rating%s%se" % (aik, csk, rating, after_rating)


_TOKEN = re.compile(rb"([bs])(0|[1-9][0-9]*):|[dle]|i(0|-?[1-9][0-9]*)e")


def _skeleton(data: bytes) -> tuple[list[int], list[int]]:
    """The positions of a canonical encoding that are not the raw bytes of a
    bytes value (tags, lengths, ends, and every str's bytes), and those of
    the first digit of each bytes or str length."""
    skeleton, lengths, pos = [], [], 0
    while pos < len(data):
        token = _TOKEN.match(data, pos)
        skeleton += range(pos, token.end())
        pos = token.end()
        if token.group(1):
            lengths.append(token.start() + 1)
            pos += int(token.group(2))
            if token.group(1) == b"s":
                skeleton += range(token.end(), pos)
    return skeleton, lengths


# 0, 1-9, 10-99 and at least 100 bytes: each of cut_entry's three length paths
field_bytes = st.sampled_from([(0, 0), (1, 9), (10, 99), (100, 150)]).flatmap(
    lambda size: st.binary(min_size=size[0], max_size=size[1])
)
meta_keys = st.text(st.sampled_from("az0é€\U0001f600"), max_size=3)  # the empty key included
not_str = (
    st.integers()
    | st.binary(max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
    | st.lists(st.integers(), max_size=2)
)
# an entry that no credential or chain holds, keyed to sort before or after the last one
stray_entries = st.tuples(st.sampled_from(["", "a", "rating", "sig", "sig2", "z"]), st.text(max_size=2) | not_str).map(
    lambda entry: encode(entry[0]) + encode(entry[1])
)
META_DEFECTS = ("meta order", "meta repeat", "meta value")
DEFECTS = [None, *META_DEFECTS, "after sig", "after rating", "truncate", "flip", "pad", "trailing"]


def _with_defect(entries: list, defect, at: int, stray) -> list:
    """``entries``, sorted and distinct, with the meta defect ``defect`` at
    entry ``at``: two keys swapped, one repeated, or a value not a str."""
    entries = list(entries) or [("j", "v"), ("k", "w")]
    at %= len(entries)
    if defect == "meta order" and len(entries) > 1:
        at = min(at, len(entries) - 2)
        entries[at : at + 2] = entries[at + 1], entries[at]
    elif defect == "meta repeat":
        entries.insert(at, entries[at])
    elif defect == "meta value":
        entries[at] = (entries[at][0], stray)
    return entries


@st.composite
def reader_inputs(draw) -> tuple:
    """A credential or a chain built from its parts, with at most one defect,
    as bytes, a bytearray or a memoryview."""
    defect, chain = draw(st.sampled_from(DEFECTS)), draw(st.booleans())

    def credential(defect) -> bytes:
        meta = draw(st.dictionaries(meta_keys, st.text(max_size=12), max_size=6))
        entries = sorted(meta.items(), key=lambda entry: entry[0].encode())
        if defect in META_DEFECTS:
            entries = _with_defect(entries, defect, draw(st.integers(0, 5)), draw(not_str))
        after_sig = draw(stray_entries) if defect == "after sig" else b""
        return _credential_bytes(draw(field_bytes), draw(field_bytes), entries, draw(field_bytes), after_sig)

    if chain:
        flawed = draw(st.integers(0, 2))
        creds = [credential(defect if slot == flawed else None) for slot in range(3)]
        data = _chain_bytes(*creds, draw(stray_entries) if defect == "after rating" else b"")
    else:
        data = credential(defect)
    skeleton, lengths = _skeleton(data)
    if defect == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif defect == "flip":
        at, byte = draw(st.sampled_from(skeleton)), draw(st.sampled_from(b"0123456789:-ibsdle") | st.integers(0, 255))
        data = data[:at] + bytes([byte]) + data[at + 1 :]
    elif defect == "pad":  # a leading zero: b032:, or b00: for an empty value
        at = draw(st.sampled_from(lengths))
        data = data[:at] + b"0" + data[at:]
    elif defect == "trailing":
        data += draw(st.binary(min_size=1, max_size=3))
    return draw(st.sampled_from([bytes, bytearray, memoryview]))(data), chain


@given(reader_inputs())
def test_the_credential_reader_accepts_what_decode_and_check_fields_accept(case):
    """Credentials and chains are cut at their fixed keys; the reference
    decodes them in full. Both accept the same inputs, with equal fields and
    equal bodies, and the reader refuses with an EncodingError only."""
    _assert_read_as_the_reference_does(*case)


_SAMPLE_CREDENTIALS = [
    (b"", b"x" * 5, [], b"s" * 150),
    (b"e" * 150, b"", [("", "v"), ("é", "")], b"q" * 9),
    (b"r" * 50, b"i" * 32, [("a", "b"), ("z", "€" * 5), ("\U0001f600", "")], b""),
]


def _sample_chain(flawed: int = -1, defect=None, stray=b"", after_rating=b"") -> bytes:
    creds = []
    for slot, (entity, issuer, entries, sig) in enumerate(_SAMPLE_CREDENTIALS):
        after_sig = stray if slot == flawed and defect == "after sig" else b""
        if slot == flawed and defect in META_DEFECTS:
            entries = _with_defect(entries, defect, 0, stray)
        creds.append(_credential_bytes(entity, issuer, entries, sig, after_sig))
    return _chain_bytes(*creds, after_rating)


def test_the_credential_reader_refuses_each_defect_as_the_reference_does():
    chain = _sample_chain()
    assert _outcome(_reference_read, chain, True) is not None
    for kind in (bytes, bytearray, memoryview):
        _assert_read_as_the_reference_does(kind(chain), True)
        _assert_read_as_the_reference_does(kind(chain[7:-1]), False)  # one credential, as a blob carries it
    defects = [chain + b"e", _sample_chain(after_rating=encode("z") + encode(""))]
    for slot in range(3):
        defects += [_sample_chain(slot, "meta order"), _sample_chain(slot, "meta repeat")]
        defects += [_sample_chain(slot, "meta value", value) for value in (7, b"v", {}, [])]
        defects += [_sample_chain(slot, "after sig", encode(key) + encode(b"")) for key in ("a", "sig", "z")]
    defects += [chain.replace(b"b5:", needle) for needle in (b"b05:", b"b+5:", b" b5:", b"b5 :")]
    defects += [chain.replace(b"b0:", b"b00:", 1), chain.replace(b"b32:", b"b032:")]
    defects.append(chain.replace(b"b5:xxxxx", b"b::" + b"x" * 10))  # ":" is no digit, though it follows "9"
    for data in defects:
        assert data != chain and _outcome(_reference_read, data, True) is None
        _assert_read_as_the_reference_does(data, True)
    for cut in range(len(chain)):
        _assert_read_as_the_reference_does(chain[:cut], True)
    skeleton, lengths = _skeleton(chain)
    for at in skeleton:
        for byte in (chain[at] ^ 1, 0x30, 0x3A, 0x65):
            _assert_read_as_the_reference_does(chain[:at] + bytes([byte]) + chain[at + 1 :], True)
    for at in lengths:
        _assert_read_as_the_reference_does(chain[:at] + b"0" + chain[at:], True)


def test_a_length_past_the_int_digit_limit_is_an_encoding_error():
    with pytest.raises(EncodingError):
        Credential.from_bytes(b"ds6:entityb" + b"9" * 5000 + b":")


# -- the rating payload and activation blob readers ---------------------------

PAYLOAD_KINDS = {"comment": str, "nonce": bytes, "rs_id": str, "score": int, "subject": str}
BLOB_KINDS = {"aik": bytes, "cred": bytes, "nonce": bytes}


def _read_payload(data) -> tuple:
    payload = RatingPayload.from_bytes(data)
    canonical = vars(payload).get("_canonical")  # the bytes it was cut from, not spliced again
    assert type(canonical) is bytes
    return payload.to_record(), canonical


def _reference_payload(data) -> tuple:
    return check_fields(decode(data), PAYLOAD_KINDS), bytes(data)


def _read_blob(data) -> dict:
    return dict(zip(BLOB_KINDS, crypto.read_activation_payload(data)))


def _reference_blob(data) -> dict:
    return check_fields(decode(data), BLOB_KINDS)


# each reader's kinds, in key order, the reader, and its reference: decode and check_fields
RECORD_READERS = {
    "payload": (PAYLOAD_KINDS, _read_payload, _reference_payload),
    "blob": (BLOB_KINDS, _read_blob, _reference_blob),
}


def _record_outcome(read, data):
    """What ``read`` makes of ``data``, or None when it refuses it with an EncodingError."""
    try:
        return read(data)
    except EncodingError:
        return None


def _assert_record_read_as_the_reference_does(reader: str, data) -> None:
    _, read, reference = RECORD_READERS[reader]
    assert _record_outcome(read, data) == _record_outcome(reference, data)


def _record_bytes(entries: list) -> bytes:
    return b"d%se" % b"".join(key + value for key, value in entries)


RECORD_VALUES = {
    bytes: field_bytes,
    str: st.sampled_from([(0, 0), (1, 2), (5, 20), (60, 80)]).flatmap(
        lambda size: st.text(st.sampled_from("az0é€\U0001f600"), min_size=size[0], max_size=size[1])
    ),
    int: st.integers() | st.integers(-9, 9),
}
BAD_UTF8 = [b"\xff", b"\xc0\x80", b"\xed\xa0\x80", b"a\x80", b"\xf4\x90\x80\x80"]
RECORD_DEFECTS = [None, "swap", "missing", "extra", "kind", "bad utf-8", "int pad", "-0", "truncate", "flip", "pad", "trailing"]


@st.composite
def record_inputs(draw, kinds: dict):
    """A payload or an activation blob built from its parts, with at most one
    defect, as bytes, a bytearray or a memoryview."""
    entries = [(encode(key), encode(draw(RECORD_VALUES[kind]))) for key, kind in kinds.items()]
    defect, at = draw(st.sampled_from(RECORD_DEFECTS)), draw(st.integers(0, len(entries) - 1))
    key, value = entries[at]
    if defect == "swap":
        at = min(at, len(entries) - 2)
        entries[at : at + 2] = entries[at + 1], entries[at]
    elif defect == "missing":
        del entries[at]
    elif defect == "extra":  # a stray key, or one repeated, anywhere
        stray = encode(draw(st.sampled_from(["", "a", "nonce", "score", "zz"]))), encode(draw(st.text(max_size=2) | not_str))
        entries.insert(draw(st.integers(0, len(entries))), stray)
    elif defect == "kind":
        kind = list(kinds.values())[at]
        other = draw(st.sampled_from([7, b"x", "x", [], {"k": 1}]).filter(lambda v: type(v) is not kind))
        entries[at] = (key, encode(other))
    elif defect == "bad utf-8":  # in a str value, or in a key
        bad = draw(st.sampled_from(BAD_UTF8))
        if value[:1] == b"s" and draw(st.booleans()):
            entries[at] = (key, b"s%d:%s" % (len(bad), bad))
        else:
            entries[at] = (b"s%d:%s" % (len(bad), bad), value)
    elif defect in ("int pad", "-0") and int in kinds.values():
        at = list(kinds.values()).index(int)
        key, value = entries[at]
        entries[at] = (key, b"i-0e" if defect == "-0" else b"i0" + value[1:])
    data = _record_bytes(entries)
    if defect in ("truncate", "flip", "pad"):
        skeleton, lengths = _skeleton(data)
    if defect == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif defect == "flip":
        at, byte = draw(st.sampled_from(skeleton)), draw(st.sampled_from(b"0123456789:-ibsdle") | st.integers(0, 255))
        data = data[:at] + bytes([byte]) + data[at + 1 :]
    elif defect == "pad":
        at = draw(st.sampled_from(lengths))
        data = data[:at] + b"0" + data[at:]
    elif defect == "trailing":
        data += draw(st.binary(min_size=1, max_size=3))
    return draw(st.sampled_from([bytes, bytearray, memoryview]))(data)


@given(
    st.sampled_from(sorted(RECORD_READERS)).flatmap(
        lambda reader: st.tuples(st.just(reader), record_inputs(RECORD_READERS[reader][0]))
    )
)
def test_the_payload_and_blob_readers_accept_what_decode_and_check_fields_accept(case):
    """A rating payload and an activation blob are cut at their fixed keys;
    the reference decodes them in full and checks their fields. Both accept
    the same inputs, with equal fields, and the reader refuses with an
    EncodingError only. A payload keeps the bytes it was cut from."""
    _assert_record_read_as_the_reference_does(*case)


BLOB_TPM_SEED = 3  # each TpmInstance of this seed makes the same identity key first
SAMPLE_RECORDS = {
    # lengths of 0, 1-9, 10-99 and at least 100 bytes; a many-digit and a one-digit score
    "payload": {"comment": "é" * 60, "nonce": b"n" * 5, "rs_id": "", "score": -12, "subject": "seller-" * 4},
    "payload-one-digit": {"comment": "", "nonce": b"n" * 16, "rs_id": "rs-x", "score": 4, "subject": "s"},
    "blob": {
        "aik": TpmInstance(rng=random.Random(BLOB_TPM_SEED)).make_identity()[1],
        "cred": certify_with(generate_keypair(seed=b"blob"), b"x", {"group": "1"}).to_bytes(),
        "nonce": b"",
    },
}


def _reply(reader: str, data: bytes) -> str:
    """What a service answers a payload (at ``rs/submit``, beside a chain of
    sound bytes) or a blob's plaintext (at activation): its error code, or
    the outcome it reaches with a record it read."""
    if reader == "payload":
        body = {"payload": data, "chain": _sample_chain()}
        router = Router(rs=ReputationSystem("rs-x"))
        _, _, status, out = decode_response(router.handle(encode_request("rs/submit", body, b"c")))
        return out["code"] if status == "error" else out["status"]
    tpm = TpmInstance(rng=random.Random(BLOB_TPM_SEED))
    handle, _ = tpm.make_identity()
    try:
        tpm.activate_identity(handle, seal(tpm.ek_public, data))
    except TicketError as exc:
        return exc.code
    return "activated"


def _record_defects(sample: str) -> tuple[bytes, list[bytes]]:
    """A sample record's bytes, and defects of it: a key swapped, missing,
    repeated or extra, a key of bad UTF-8, a value of another kind, trailing
    bytes, and for a payload a malformed, leading-zero or -0 score and bad
    UTF-8 in a str value."""
    record = SAMPLE_RECORDS[sample]
    entries = [(encode(key), encode(value)) for key, value in record.items()]
    data = _record_bytes(entries)
    defects = [data + b"e", data + b"\x00", encode([record]), data[:-1] + encode("zz") + encode(b"") + b"e"]
    for at in range(len(entries)):
        key, value = entries[at]
        before, after = entries[:at], entries[at + 1 :]
        defects += [_record_bytes(before + after), _record_bytes(before + [entries[at]] + entries[at:])]
        defects += [_record_bytes(before + [(encode("a"), encode(b""))] + entries[at:])]
        defects += [_record_bytes(before + [(b"s%d:%s" % (len(bad), bad), value)] + after) for bad in BAD_UTF8]
        defects += [_record_bytes(before + [(key, encode(7 if value[:1] != b"i" else "7"))] + after)]
        if at:
            defects.append(_record_bytes(entries[: at - 1] + [entries[at], entries[at - 1]] + after))
    if "score" in record:
        score = b"s5:score" + encode(record["score"])
        bad_scores = (b"i-012e", b"i012e", b"i04e", b"i00e", b"i-0e", b"i+4e", b"i 4e", b"i1_2e", b"i-e", b"i/e", b"i.e", b"ie")
        defects += [data.replace(score, b"s5:score" + bad) for bad in bad_scores]
        subject = encode(record["subject"])
        defects.append(data.replace(b"s7:subject" + subject, b"s7:subject" + subject[:-1] + b"\xff"))
    if sample == "payload":
        defects.append(data.replace(b"s120:\xc3\xa9", b"s120:\xa9\xc3"))
    return data, defects


@pytest.mark.parametrize("sample", sorted(SAMPLE_RECORDS))
def test_the_payload_and_blob_readers_refuse_each_defect_as_the_reference_does(sample):
    """Each defect, each truncation and each zero-padded length is refused by
    the reader as by the reference, and the service answers it with the code
    it gave before: protocol-error at rs/submit, malformed-blob at activation."""
    reader = sample.split("-")[0]
    data, defects = _record_defects(sample)
    code = {"payload": "protocol-error", "blob": "malformed-blob"}[reader]
    assert _reply(reader, data) == {"payload": "reject", "blob": "activated"}[reader]
    for kind in (bytes, bytearray, memoryview):
        _assert_record_read_as_the_reference_does(reader, kind(data))
    skeleton, lengths = _skeleton(data)
    defects += [data[:cut] for cut in range(len(data))]
    defects += [data[:at] + b"0" + data[at:] for at in lengths]
    for bad in defects:
        assert bad != data and _record_outcome(RECORD_READERS[reader][2], bad) is None
        _assert_record_read_as_the_reference_does(reader, bad)
        assert _reply(reader, bad) == code
    for at in skeleton:
        for byte in (data[at] ^ 1, 0x30, 0x3A, 0x65):
            _assert_record_read_as_the_reference_does(reader, data[:at] + bytes([byte]) + data[at + 1 :])


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

needs_sodium = pytest.mark.skipif(BACKENDS["sodium"] is None, reason="libsodium cannot be loaded")


def on_each_backend(function, *args) -> list:
    """``function(*args)`` with every primitive in ``cryptography``, then in libsodium."""
    results = []
    for name in BACKENDS:
        with on_backend(name):
            results.append(function(*args))
    return results


def verdicts(public, message, signature) -> set[bool]:
    """``crypto.verify``'s answers on each backend."""
    return set(on_each_backend(crypto.verify, public, message, signature))


class RecordingSodium:
    """A stand-in for the libsodium handle: records the name of each function
    called, and every call reports success."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append(name) or 0


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
    monkeypatch.setattr(crypto, "_sodium", RecordingSodium())
    cases = [case for case in _refused_cases() if case[0] != "s-plus-l"]
    assert [name for name, *args in cases if crypto.verify(*args)] == []
    assert crypto._sodium.calls == []
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


# -- Ed25519 keys and signatures, ChaCha20-Poly1305: the same bytes from either backend

seeds = st.binary(min_size=32, max_size=32)
aead_keys = st.binary(min_size=32, max_size=32)
nonces = st.binary(min_size=12, max_size=12)
aads = st.none() | st.binary(max_size=40)


@needs_sodium
@given(seeds)
def test_backends_derive_the_same_public_key(seed):
    publics = on_each_backend(lambda: crypto.signing_pair(seed).public)
    assert publics[0] == publics[1]


@needs_sodium
@given(seeds, st.binary(max_size=300))
def test_backends_sign_alike(seed, message):
    signatures = on_each_backend(lambda: crypto.sign(crypto.signing_pair(seed), message))
    assert signatures[0] == signatures[1]


@needs_sodium
@given(aead_keys, nonces, st.binary(max_size=300), aads)
def test_backends_encrypt_alike(key, nonce, plaintext, aad):
    """Ciphertext and tag, for any associated data, None and empty included."""
    boxes = on_each_backend(crypto.aead_encrypt, key, nonce, plaintext, aad)
    assert boxes[0] == boxes[1] and len(boxes[0]) == len(plaintext) + 16
    assert on_each_backend(crypto.aead_decrypt, key, nonce, boxes[0], aad) == [plaintext, plaintext]


@needs_sodium
@given(aead_keys, nonces, st.binary(max_size=60), aads, st.sampled_from(["key", "nonce", "box", "tag", "aad"]), st.data())
def test_backends_refuse_a_tampered_box_alike(key, nonce, plaintext, aad, part, data):
    """One flipped bit in the key, the nonce, the ciphertext and tag, the tag
    alone or the associated data, or associated data where there was none:
    a SealError on either backend."""
    inputs = {"key": key, "nonce": nonce, "box": crypto.aead_encrypt(key, nonce, plaintext, aad), "aad": aad or b""}
    field = "box" if part == "tag" else part
    value = inputs[field]
    if value:
        at = data.draw(st.integers(len(value) - 16 if part == "tag" else 0, len(value) - 1))
        value = value[:at] + bytes([value[at] ^ 1 << data.draw(st.integers(0, 7))]) + value[at + 1 :]
    else:
        value = b"\x01"
    inputs[field] = value
    for name in BACKENDS:
        with on_backend(name), pytest.raises(crypto.SealError):
            crypto.aead_decrypt(inputs["key"], inputs["nonce"], inputs["box"], inputs["aad"])


def test_bytes_like_inputs_give_the_same_bytes(backend):
    """A bytearray or memoryview is taken wherever bytes are, as ``cryptography`` takes them."""
    key, nonce, plaintext, aad = bytes(range(32)), bytes(12), b"plaintext", b"aad"
    box = crypto.aead_encrypt(key, nonce, plaintext, aad)
    assert crypto.aead_encrypt(bytearray(key), memoryview(nonce), bytearray(plaintext), memoryview(aad)) == box
    assert crypto.aead_decrypt(memoryview(key), bytearray(nonce), bytearray(box), bytearray(aad)) == plaintext
    pair = crypto.signing_pair(bytearray(key))
    assert pair == crypto.signing_pair(key) and type(pair.private) is bytes
    assert crypto.sign(pair, bytearray(b"m")) == crypto.sign(pair, b"m")


def _bad_inputs():
    """(name, call, error) for each input of a wrong type or length that
    libsodium would read past or short of. Each error is the type
    ``cryptography`` raises for that input, but for a ciphertext shorter than
    its tag, which fails as a wrong tag does."""
    key, nonce, data = bytes(32), bytes(12), bytes(16)
    pair = crypto.KeyPair(public=bytes(32), private=bytes(32), key=bytes(64))
    yield "seed-31", lambda: crypto.signing_pair(bytes(31)), ValueError
    yield "seed-64", lambda: crypto.signing_pair(bytes(64)), ValueError
    yield "seed-str", lambda: crypto.signing_pair("s" * 32), TypeError
    yield "seed-none", lambda: crypto.signing_pair(None), TypeError
    yield "secret-key-63", lambda: crypto.sign(crypto.KeyPair(bytes(32), bytes(32), bytes(63)), b"m"), ValueError
    yield "secret-key-object", lambda: crypto.sign(generate_sealing_keypair(), b"m"), TypeError
    yield "message-str", lambda: crypto.sign(pair, "m"), TypeError
    for name, function in (("encrypt", crypto.aead_encrypt), ("decrypt", crypto.aead_decrypt)):
        yield f"{name}-key-31", lambda f=function: f(bytes(31), nonce, data), ValueError
        yield f"{name}-key-33", lambda f=function: f(bytes(33), nonce, data), ValueError
        yield f"{name}-key-str", lambda f=function: f("k" * 32, nonce, data), TypeError
        yield f"{name}-nonce-11", lambda f=function: f(key, bytes(11), data), ValueError
        yield f"{name}-nonce-24", lambda f=function: f(key, bytes(24), data), ValueError
        yield f"{name}-data-str", lambda f=function: f(key, nonce, "d" * 16), TypeError
        yield f"{name}-aad-str", lambda f=function: f(key, nonce, data, "a"), TypeError
        yield f"{name}-aad-int", lambda f=function: f(key, nonce, data, 5), TypeError
    yield "decrypt-shorter-than-tag", lambda: crypto.aead_decrypt(key, nonce, bytes(15)), crypto.SealError


def test_inputs_are_checked_before_any_c_call(monkeypatch):
    """Each wrong type or length raises its error and no libsodium function
    runs; right inputs reach each function once."""
    monkeypatch.setattr(crypto, "_sodium", RecordingSodium())
    wrong = []
    for name, call, error in _bad_inputs():
        with pytest.raises(Exception) as excinfo:
            call()
        if excinfo.type is not error:
            wrong.append(name)
    assert wrong == []
    assert crypto._sodium.calls == []
    pair = crypto.signing_pair(bytes(32))
    crypto.sign(pair, b"m")
    crypto.aead_encrypt(bytes(32), bytes(12), b"", None)
    crypto.aead_decrypt(bytes(32), bytes(12), bytes(16), b"")
    assert crypto._sodium.calls == [
        "crypto_sign_seed_keypair",
        "crypto_sign_detached",
        "crypto_aead_chacha20poly1305_ietf_encrypt",
        "crypto_aead_chacha20poly1305_ietf_decrypt",
    ]


def test_a_small_order_key_verifies_nothing(backend):
    """Under the neutral point, OpenSSL's verify accepts the forgery for
    every message; crypto.verify refuses it whichever backend runs."""
    for message in (b"", b"any message", crypto.CREDENTIAL_DOMAIN + b"body"):
        assert not crypto.verify(NEUTRAL, message, NEUTRAL_FORGERY)


def test_a_chain_under_small_order_keys_is_a_bad_signature(backend):
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


def test_a_tampered_sealed_blob_is_refused(backend):
    pair = generate_sealing_keypair(seed=b"recipient")
    blob = seal(pair.public, b"secret", ephemeral_seed=b"ephemeral")
    assert unseal(pair, blob) == b"secret"
    for at in (0, 31, 32, len(blob) - 17, len(blob) - 16, len(blob) - 1):  # ephemeral key, ciphertext, tag
        tampered = bytearray(blob)
        tampered[at] ^= 0x80
        with pytest.raises(crypto.SealError):
            unseal(pair, bytes(tampered))
    with pytest.raises(crypto.SealError):
        unseal(generate_sealing_keypair(seed=b"other"), blob)


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
