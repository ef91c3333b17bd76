"""Signature and credential primitives shared by every party.

A credential is a signed statement about an entity: the canonical bytes of
the entity plus a tamper-evident label map, signed by the issuer key and
carried together with the issuer's public key. Ratings travel as a chain of
three credentials (rating <- signing key <- group) which the reputation
side verifies link by link against the registered group keys.

Signing is Ed25519; blobs confined to one platform are sealed with
X25519 + HKDF-SHA256 + ChaCha20-Poly1305. Domain prefixes keep the three
signing contexts (credentials, issuance nonces, raw payload signing)
mutually unforgeable. Ed25519 key derivation, signing and verifying, and
ChaCha20-Poly1305, run in the system's libsodium where it can be loaded,
else in ``cryptography``; X25519 and HKDF always run in ``cryptography``.
Ed25519 (RFC 8032) and ChaCha20-Poly1305 (RFC 8439) are deterministic, so
both libraries give the same bytes, and verify accepts the same set on both.
"""

from __future__ import annotations

import ctypes
import hashlib
import secrets
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .encoding import EncodingError, Shape, cut_entry, read_all
from .errors import InvalidArgument

CREDENTIAL_DOMAIN = b"pseudorate:cred:v1:"
ISSUANCE_NONCE_DOMAIN = b"pseudorate:issuance-nonce:v1:"
_SEAL_INFO = b"pseudorate:seal:v1:"
_SIGN_SEED_DOMAIN = b"pseudorate:keygen:ed25519:v1:"
_SEAL_SEED_DOMAIN = b"pseudorate:keygen:x25519:v1:"
_SEAL_NONCE = b"\x00" * 12  # fresh ephemeral key per blob, fixed nonce is safe


class SealError(InvalidArgument):
    code = "seal-error"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def key_id_of(public: bytes) -> str:
    return sha256_hex(public)


@dataclass(frozen=True)
class KeyPair:
    """Raw key bytes plus the private key in the form its library signs or
    unseals with, built once: for Ed25519, libsodium's 64-byte secret key
    (``private`` then ``public``), or ``cryptography``'s key object where
    libsodium is not loaded; for X25519, always ``cryptography``'s object."""

    public: bytes
    private: bytes = field(repr=False)
    key: bytes | Ed25519PrivateKey | X25519PrivateKey = field(repr=False, compare=False)


def _seed_to_raw(domain: bytes, seed: bytes) -> bytes:
    return hashlib.sha256(domain + seed).digest()


# ---------------------------------------------------------------------------
# libsodium, where the system has it
# ---------------------------------------------------------------------------

def _load_sodium() -> ctypes.CDLL | None:
    """The system's libsodium, with the types of each function used declared,
    where it can be loaded; else None, and ``cryptography`` runs instead."""
    for name in ("libsodium.so.23", "libsodium.so.26", "libsodium.dylib"):
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        lib.sodium_init.argtypes, lib.sodium_init.restype = (), ctypes.c_int
        if lib.sodium_init() < 0:
            return None
        buf, size, null = ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_void_p
        for function, argtypes in {
            "crypto_sign_seed_keypair": (buf, buf, buf),  # public, secret, seed
            "crypto_sign_detached": (buf, null, buf, size, buf),  # sig, -, message, len, secret
            "crypto_sign_ed25519_verify_detached": (buf, buf, size, buf),  # sig, message, len, public
            # out, -, in, len, aad, len, -, nonce, key
            "crypto_aead_chacha20poly1305_ietf_encrypt": (buf, null, buf, size, buf, size, null, buf, buf),
            # out, -, -, in, len, aad, len, nonce, key
            "crypto_aead_chacha20poly1305_ietf_decrypt": (buf, null, null, buf, size, buf, size, buf, buf),
        }.items():
            declared = getattr(lib, function)
            declared.argtypes, declared.restype = argtypes, ctypes.c_int
        return lib
    return None


_sodium = _load_sodium()


def _bytes(value: bytes, size: int | None = None, name: str = "input") -> bytes:
    """``value`` as ``bytes`` of ``size`` bytes, checked before a C function
    reads it, since libsodium reads exactly the lengths it is given. A value
    that is not bytes-like is a TypeError and a wrong length a ValueError, as
    in ``cryptography``, which also takes a bytearray or memoryview."""
    if type(value) is not bytes:
        value = bytes(memoryview(value))
    if size is not None and len(value) != size:
        raise ValueError(f"{name} must be {size} bytes")
    return value


# ---------------------------------------------------------------------------
# Ed25519
# ---------------------------------------------------------------------------

def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Fresh Ed25519 signing pair; a fixed seed makes the pair reproducible."""
    raw = _seed_to_raw(_SIGN_SEED_DOMAIN, seed) if seed is not None else secrets.token_bytes(32)
    return signing_pair(raw)


def signing_pair(private: bytes) -> KeyPair:
    """The Ed25519 pair of a 32-byte seed."""
    private = _bytes(private, 32, "an Ed25519 seed")
    if _sodium is None:
        key = Ed25519PrivateKey.from_private_bytes(private)
        public = key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
        return KeyPair(public=public, private=private, key=key)
    public, secret = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
    _sodium.crypto_sign_seed_keypair(public, secret, private)
    return KeyPair(public=public.raw, private=private, key=secret.raw)


def generate_sealing_keypair(seed: bytes | None = None) -> KeyPair:
    """Fresh X25519 pair used only to seal/unseal platform-confined blobs."""
    raw = _seed_to_raw(_SEAL_SEED_DOMAIN, seed) if seed is not None else secrets.token_bytes(32)
    priv = X25519PrivateKey.from_private_bytes(raw)
    pub = priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    return KeyPair(public=pub, private=raw, key=priv)


def sign(pair: KeyPair, message: bytes) -> bytes:
    """Ed25519 signature by a signing pair's prebuilt key."""
    if _sodium is None:
        return pair.key.sign(message)
    secret, message = _bytes(pair.key, 64, "an Ed25519 secret key"), _bytes(message)
    signature = ctypes.create_string_buffer(64)
    _sodium.crypto_sign_detached(signature, None, message, len(message), secret)
    return signature.raw


# Ed25519 verifiers differ in what they accept (Chalkias et al., "Taming the
# many EdDSAs", 2020). OpenSSL accepts signatures under a key, or with an R, of
# small order: under the neutral point b"\x01" + bytes(31) as the key, the
# signature b"\x01" + bytes(63) verifies every message there. libsodium refuses
# a key or R whose y (the low 255 bits) is one of the seven values below, and a
# key whose y is not reduced mod p; verify refuses both before either library runs.
_P = 2**255 - 19
_Y8 = 2707385501144840649318225287225658788936804267575313519463743609750303402022  # y of a point of order 8
_SMALL_ORDER_Y = frozenset({0, 1, _P - 1, _P, _P + 1, _Y8, _P - _Y8})
_Y_MASK = (1 << 255) - 1
# The X25519 u of each point of small order libsodium's has_small_order lists,
# compared with bit 255 cleared: 0, 1, the two points of order 8, p - 1, p and
# p + 1. An exchange with any of them yields no shared key, so nothing can be
# sealed to it.
_SMALL_ORDER_U = frozenset({
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _P - 1,
    _P,
    _P + 1,
})


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature validates; never raises on malformed input.
    Arguments that are not ``bytes``, or a key or signature not of 32 or 64
    bytes, are False before any C call; so is a key or R of small order and
    a key not reduced mod p, whichever library runs."""
    if not (
        isinstance(public, bytes)
        and len(public) == 32
        and isinstance(signature, bytes)
        and len(signature) == 64
        and isinstance(message, bytes)
    ):
        return False
    key_y = int.from_bytes(public, "little") & _Y_MASK
    r_y = int.from_bytes(signature[:32], "little") & _Y_MASK
    if key_y >= _P or key_y in _SMALL_ORDER_Y or r_y in _SMALL_ORDER_Y:
        return False
    if _sodium is not None:
        return _sodium.crypto_sign_ed25519_verify_detached(signature, message, len(message), public) == 0
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
    except InvalidSignature:
        return False
    return True


# ---------------------------------------------------------------------------
# ChaCha20-Poly1305
# ---------------------------------------------------------------------------

# The AEAD runs in libsodium along with signing, for a measured side effect
# as much as for speed. Pure-Python code on a thread ran about 14 % slower
# after a ``cryptography`` ChaCha20-Poly1305 call there, until an OpenSSL
# SHA-512 ran on that thread, as one does inside every OpenSSL Ed25519 sign.
# After libsodium's AEAD it ran at full speed, and that call also cleared the
# slowdown. With signing alone moved, the in-process score reads of the
# benchmark slowed by 13 %. (Interleaved probes on 2 vCPUs with AVX-512,
# Python 3.11.7, OpenSSL 4.0.0, libsodium 1.0.18. The pattern points at the
# CPU's vector-register state; no hardware counter was read to confirm it.)

def aead_encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes | None = None) -> bytes:
    """ChaCha20-Poly1305 (RFC 8439) under a 32-byte key and a 12-byte nonce:
    the ciphertext of ``plaintext`` followed by its 16-byte tag."""
    key, nonce, plaintext, aad = _aead_inputs(key, nonce, plaintext, aad)
    if _sodium is None:
        return ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
    out = ctypes.create_string_buffer(len(plaintext) + 16)
    _sodium.crypto_aead_chacha20poly1305_ietf_encrypt(
        out, None, plaintext, len(plaintext), aad, len(aad or b""), None, nonce, key
    )
    return out.raw


def aead_decrypt(key: bytes, nonce: bytes, ciphertext: bytes, aad: bytes | None = None) -> bytes:
    """The plaintext of :func:`aead_encrypt`'s output. A :class:`SealError`
    where the tag does not hold under this key, nonce and associated data, or
    the input is shorter than a tag."""
    key, nonce, ciphertext, aad = _aead_inputs(key, nonce, ciphertext, aad)
    if len(ciphertext) < 16:
        raise SealError("ciphertext shorter than its tag")
    if _sodium is None:
        try:
            return ChaCha20Poly1305(key).decrypt(nonce, ciphertext, aad)
        except InvalidTag as exc:
            raise SealError("not sealed to this key") from exc
    out = ctypes.create_string_buffer(len(ciphertext) - 16)
    if _sodium.crypto_aead_chacha20poly1305_ietf_decrypt(
        out, None, None, ciphertext, len(ciphertext), aad, len(aad or b""), nonce, key
    ):
        raise SealError("not sealed to this key")
    return out.raw


def _aead_inputs(key: bytes, nonce: bytes, data: bytes, aad: bytes | None) -> tuple:
    return (
        _bytes(key, 32, "a ChaCha20-Poly1305 key"),
        _bytes(nonce, 12, "a ChaCha20-Poly1305 nonce"),
        _bytes(data),
        None if aad is None else _bytes(aad),
    )


# ---------------------------------------------------------------------------
# Sealed blobs (decryptable only by the holder of the sealing private key)
# ---------------------------------------------------------------------------

def can_seal_to(public: object) -> bool:
    """True iff :func:`seal` can seal to ``public``: 32 bytes whose u, bit 255
    cleared, is of no point of small order; checked by comparison, with no exchange."""
    if type(public) is not bytes or len(public) != 32:
        return False
    return int.from_bytes(public, "little") & _Y_MASK not in _SMALL_ORDER_U


def seal(recipient_public: bytes, plaintext: bytes, *, ephemeral_seed: bytes | None = None) -> bytes:
    try:
        recipient = X25519PublicKey.from_public_bytes(recipient_public)
    except ValueError as exc:
        raise SealError("bad recipient key") from exc
    ephemeral = generate_sealing_keypair(ephemeral_seed)
    key = _seal_key(ephemeral.key.exchange(recipient), ephemeral.public, recipient_public)
    return ephemeral.public + aead_encrypt(key, _SEAL_NONCE, plaintext)


def unseal(recipient: KeyPair, blob: bytes) -> bytes:
    if len(blob) < 32 + 16:
        raise SealError("blob too short")
    eph_pub, ciphertext = blob[:32], blob[32:]
    try:
        shared = recipient.key.exchange(X25519PublicKey.from_public_bytes(eph_pub))
    except ValueError as exc:
        raise SealError("malformed blob") from exc
    return aead_decrypt(_seal_key(shared, eph_pub, recipient.public), _SEAL_NONCE, ciphertext)


def _seal_key(shared: bytes, eph_pub: bytes, recipient_pub: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=32,
        salt=None,
        info=_SEAL_INFO + eph_pub + recipient_pub,
    ).derive(shared)


# ---------------------------------------------------------------------------
# Credentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Credential:
    """Signed statement over ``entity`` (+ labels), verifiable with the
    embedded issuer public key. ``meta`` is a read-only copy taken at
    construction, so the cached :attr:`body` always matches the fields."""

    entity: bytes
    issuer_public: bytes
    signature: bytes
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    @cached_property
    def body(self) -> bytes:
        """The record without its signature: the bytes :func:`certify` signed,
        or, in a credential read from bytes, those bytes up to the ``sig``
        entry and then ``e``, else written once by :func:`credential_body`.
        The signature covers ``CREDENTIAL_DOMAIN + body``, and :meth:`to_bytes`
        is ``body`` with the ``sig`` entry spliced in."""
        return credential_body(self.entity, self.issuer_public, self.meta)

    def to_bytes(self) -> bytes:
        # "sig" sorts after "entity", "issuer" and "meta"
        return b"%ss3:sigb%d:%se" % (self.body[:-1], len(self.signature), self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Credential":
        return read_all(data, _cut_credential)


def _cut_credential(data: bytes, start: int, key: bytes = b"") -> tuple[Credential, int]:
    """The credential after ``key`` at ``start``, cut at its fixed keys as
    FORMATS §2 describes, and the position after it."""
    entity, pos = cut_entry(data, start, key + b"ds6:entityb")
    issuer, pos = cut_entry(data, pos, b"s6:issuerb")
    if not data.startswith(b"s4:metad", pos):
        raise EncodingError("credential: no meta entry")
    pos, meta, raw_key = pos + 8, {}, None
    while data[pos] != 0x65:  # e
        raw, pos = cut_entry(data, pos, b"s")
        if raw_key is not None and raw <= raw_key:  # UTF-8 byte order is str order
            raise EncodingError("credential: meta keys not strictly ascending")
        value, pos = cut_entry(data, pos, b"s")
        meta[raw.decode()], raw_key = value.decode(), raw
    signature, end = cut_entry(data, pos + 1, b"s3:sigb")
    if data[end] != 0x65:
        raise EncodingError("credential: an entry after sig")
    cred = Credential(entity=entity, issuer_public=issuer, signature=signature, meta=meta)
    object.__setattr__(cred, "body", data[start + len(key) : pos + 1] + b"e")  # meta's end, then the record's
    return cred, end + 1


def credential_body(entity: bytes, issuer: bytes, meta: Mapping[str, str]) -> bytes:
    """``encode({"entity": entity, "issuer": issuer, "meta": meta})``, spliced,
    as the keys sort: entity < issuer < meta. A field not exactly of its type
    (``meta`` maps str to str) or a str UTF-8 cannot encode is an EncodingError."""
    if type(entity) is not bytes or type(issuer) is not bytes:
        raise EncodingError("credential: entity and issuer must be bytes")
    for key, value in meta.items():
        if type(key) is not str or type(value) is not str:
            raise EncodingError("credential: meta must map str to str")
    entries = b""
    try:
        for key in sorted(meta):
            raw, value = key.encode(), meta[key].encode()
            entries += b"s%d:%ss%d:%s" % (len(raw), raw, len(value), value)
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise EncodingError(f"cannot encode: {exc}") from exc
    return b"ds6:entityb%d:%ss6:issuerb%d:%ss4:metad%see" % (len(entity), entity, len(issuer), issuer, entries)


def certify(
    issuer_public: bytes,
    sign: Callable[[bytes], bytes],
    entity: bytes,
    meta: Mapping[str, str] | None = None,
) -> Credential:
    """The one way to make a credential: ``sign`` maps the preimage
    ``CREDENTIAL_DOMAIN + body`` to the issuer's signature, and the credential
    keeps the body it signed, written by :func:`credential_body`."""
    meta = dict(meta or {})
    if not entity:
        raise InvalidArgument("entity must be non-empty")
    if any(not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()):
        raise InvalidArgument("meta must map str to str")
    body = credential_body(entity, issuer_public, meta)
    signature = sign(CREDENTIAL_DOMAIN + body)
    cred = Credential(entity=entity, issuer_public=issuer_public, signature=signature, meta=meta)
    object.__setattr__(cred, "body", body)
    return cred


def verify_credential(cred: Credential) -> bool:
    try:
        if not cred.entity:
            return False
        payload = CREDENTIAL_DOMAIN + cred.body
    except Exception:
        return False
    return verify(cred.issuer_public, payload, cred.signature)


# the plaintext of an activation blob: the identity key, its group credential's bytes and a single-use nonce
ACTIVATION_BLOB = Shape("activation blob", aik=bytes, cred=bytes, nonce=bytes)


# ---------------------------------------------------------------------------
# Credential chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CredentialChain:
    """rating_cred: payload signed by the certified signing key;
    csk_cred: signing key certified by the identity key;
    aik_cred: identity key certified by a group key."""

    rating_cred: Credential
    csk_cred: Credential
    aik_cred: Credential

    def to_bytes(self) -> bytes:
        """``encode`` of ``{"aik", "csk", "rating"}``, each its credential's
        record, spliced from the credentials' own bytes."""
        return b"ds3:aik%ss3:csk%ss6:rating%se" % (
            self.aik_cred.to_bytes(),
            self.csk_cred.to_bytes(),
            self.rating_cred.to_bytes(),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CredentialChain":
        return read_all(data, _cut_chain)

    @property
    def aik_digest(self) -> str:
        return key_id_of(self.aik_cred.entity)


def _cut_chain(data: bytes, pos: int) -> tuple[CredentialChain, int]:
    """The chain at ``pos``, its credentials cut in key order, and the position after it."""
    aik, pos = _cut_credential(data, pos, b"ds3:aik")
    csk, pos = _cut_credential(data, pos, b"s3:csk")
    rating, pos = _cut_credential(data, pos, b"s6:rating")
    if data[pos] != 0x65:  # e
        raise EncodingError("chain: an entry after rating")
    return CredentialChain(rating_cred=rating, csk_cred=csk, aik_cred=aik), pos + 1


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    group: int | None
    reason: str | None


def chain_group(chain: CredentialChain, group_registry: Mapping[int, bytes]) -> int | None:
    """The first gid in ``group_registry`` whose key issued the chain's group
    credential, or None; a lookup only, no signature is checked."""
    group_public = chain.aik_cred.issuer_public
    return next((gid for gid, public in group_registry.items() if public == group_public), None)


def verify_chain(chain: CredentialChain, group_registry: Mapping[int, bytes]) -> VerifyReport:
    """Check each link's signature, the key linkage between links, and that
    the group credential was issued under a registered group key. The group
    is :func:`chain_group`; an empty registry names none, so a chain whose
    signatures and links hold is an ``unknown-group``."""
    group = chain_group(chain, group_registry)
    if not (
        verify_credential(chain.rating_cred)
        and verify_credential(chain.csk_cred)
        and verify_credential(chain.aik_cred)
    ):
        reason = "bad-signature"
    elif not (
        chain.rating_cred.issuer_public == chain.csk_cred.entity
        and chain.csk_cred.issuer_public == chain.aik_cred.entity
    ):
        reason = "link-mismatch"
    elif group is None:
        reason = "unknown-group"
    else:
        reason = None

    return VerifyReport(valid=reason is None, group=group, reason=reason)
