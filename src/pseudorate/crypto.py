"""Signature and credential primitives shared by every party.

A credential is a signed statement about an entity: the canonical bytes of
the entity plus a tamper-evident label map, signed by the issuer key and
carried together with the issuer's public key. Ratings travel as a chain of
three credentials (rating <- signing key <- group) which the reputation
side verifies link by link against the registered group keys.

Signing is Ed25519; blobs confined to one platform are sealed with
X25519 + HKDF-SHA256 + ChaCha20-Poly1305. Domain prefixes keep the three
signing contexts (credentials, issuance nonces, raw payload signing)
mutually unforgeable.
"""

from __future__ import annotations

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

from .encoding import EncodingError, decode, encode
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
    """Raw key bytes plus the ``cryptography`` private-key object built from
    them once: signing (Ed25519) and unsealing (X25519) go through ``key``."""

    public: bytes
    private: bytes = field(repr=False)
    key: Ed25519PrivateKey | X25519PrivateKey = field(repr=False, compare=False)


def _seed_to_raw(domain: bytes, seed: bytes) -> bytes:
    return hashlib.sha256(domain + seed).digest()


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Fresh Ed25519 signing pair; a fixed seed makes the pair reproducible."""
    raw = _seed_to_raw(_SIGN_SEED_DOMAIN, seed) if seed is not None else secrets.token_bytes(32)
    return signing_pair(raw)


def signing_pair(private: bytes) -> KeyPair:
    """The Ed25519 pair of raw private bytes."""
    priv = Ed25519PrivateKey.from_private_bytes(private)
    pub = priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    return KeyPair(public=pub, private=private, key=priv)


def generate_sealing_keypair(seed: bytes | None = None) -> KeyPair:
    """Fresh X25519 pair used only to seal/unseal platform-confined blobs."""
    raw = _seed_to_raw(_SEAL_SEED_DOMAIN, seed) if seed is not None else secrets.token_bytes(32)
    priv = X25519PrivateKey.from_private_bytes(raw)
    pub = priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    return KeyPair(public=pub, private=raw, key=priv)


def sign(pair: KeyPair, message: bytes) -> bytes:
    """Ed25519 signature by a signing pair's prebuilt key object."""
    return pair.key.sign(message)


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature validates; never raises on malformed input."""
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


# ---------------------------------------------------------------------------
# Sealed blobs (decryptable only by the holder of the sealing private key)
# ---------------------------------------------------------------------------

def seal(recipient_public: bytes, plaintext: bytes, *, ephemeral_seed: bytes | None = None) -> bytes:
    try:
        recipient = X25519PublicKey.from_public_bytes(recipient_public)
    except ValueError as exc:
        raise SealError("bad recipient key") from exc
    eph_raw = (
        _seed_to_raw(_SEAL_SEED_DOMAIN, ephemeral_seed)
        if ephemeral_seed is not None
        else secrets.token_bytes(32)
    )
    eph_priv = X25519PrivateKey.from_private_bytes(eph_raw)
    eph_pub = eph_priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    key = _seal_key(eph_priv.exchange(recipient), eph_pub, recipient_public)
    ciphertext = ChaCha20Poly1305(key).encrypt(_SEAL_NONCE, plaintext, None)
    return eph_pub + ciphertext


def unseal(recipient: KeyPair, blob: bytes) -> bytes:
    if len(blob) < 32 + 16:
        raise SealError("blob too short")
    eph_pub, ciphertext = blob[:32], blob[32:]
    try:
        shared = recipient.key.exchange(X25519PublicKey.from_public_bytes(eph_pub))
    except ValueError as exc:
        raise SealError("malformed blob") from exc
    key = _seal_key(shared, eph_pub, recipient.public)
    try:
        return ChaCha20Poly1305(key).decrypt(_SEAL_NONCE, ciphertext, None)
    except InvalidTag as exc:
        raise SealError("not sealed to this key") from exc


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
        or cut from the bytes it was parsed from, else encoded once. The
        signature covers ``CREDENTIAL_DOMAIN + body``, and :meth:`to_bytes` is
        ``body`` with the ``sig`` entry spliced in."""
        return encode({"entity": self.entity, "issuer": self.issuer_public, "meta": dict(self.meta)})

    def to_record(self) -> dict:
        return {
            "entity": self.entity,
            "issuer": self.issuer_public,
            "meta": dict(self.meta),
            "sig": self.signature,
        }

    @classmethod
    def from_record(cls, record: object, data: bytes, spans: dict) -> "Credential":
        """``record`` as ``decode(data, spans)`` produced it. Decoding is
        canonical, so its span without the ``sig`` entry is the body."""
        if not isinstance(record, dict) or set(record) != {"entity", "issuer", "meta", "sig"}:
            raise EncodingError("bad credential record")
        entity, issuer, meta, sig = record["entity"], record["issuer"], record["meta"], record["sig"]
        if not (isinstance(entity, bytes) and isinstance(issuer, bytes) and isinstance(sig, bytes)):
            raise EncodingError("bad credential field types")
        if not isinstance(meta, dict) or any(
            not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()
        ):
            raise EncodingError("bad credential meta")
        cred = cls(entity=entity, issuer_public=issuer, signature=sig, meta=meta)
        start, end = spans[id(record)]  # the span ends in the "sig" entry and "e"
        object.__setattr__(cred, "body", data[start : end - len(b"s3:sigb%d:%se" % (len(sig), sig))] + b"e")
        return cred

    def to_bytes(self) -> bytes:
        # "sig" sorts after "entity", "issuer" and "meta"
        return b"%ss3:sigb%d:%se" % (self.body[:-1], len(self.signature), self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Credential":
        spans: dict = {}
        return cls.from_record(decode(data, spans), data, spans)


def certify(
    issuer_public: bytes,
    sign: Callable[[bytes], bytes],
    entity: bytes,
    meta: Mapping[str, str] | None = None,
) -> Credential:
    """The one way to make a credential: ``sign`` maps the preimage
    ``CREDENTIAL_DOMAIN + body`` to the issuer's signature, and the credential
    keeps the body it signed."""
    meta = dict(meta or {})
    if not entity:
        raise InvalidArgument("entity must be non-empty")
    if any(not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()):
        raise InvalidArgument("meta must map str to str")
    body = encode({"entity": entity, "issuer": issuer_public, "meta": meta})
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


def encode_activation_payload(aik_public: bytes, credential: Credential, blob_nonce: bytes) -> bytes:
    """Plaintext carried inside a sealed activation blob: the target identity
    key, its group credential, and a single-use nonce."""
    return encode({"aik": aik_public, "cred": credential.to_record(), "nonce": blob_nonce})


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

    def to_record(self) -> dict:
        return {
            "rating": self.rating_cred.to_record(),
            "csk": self.csk_cred.to_record(),
            "aik": self.aik_cred.to_record(),
        }

    @classmethod
    def from_record(cls, record: object, data: bytes, spans: dict) -> "CredentialChain":
        if not isinstance(record, dict) or set(record) != {"rating", "csk", "aik"}:
            raise EncodingError("bad chain record")
        return cls(
            rating_cred=Credential.from_record(record["rating"], data, spans),
            csk_cred=Credential.from_record(record["csk"], data, spans),
            aik_cred=Credential.from_record(record["aik"], data, spans),
        )

    def to_bytes(self) -> bytes:
        """``encode(self.to_record())``, spliced from the credentials' own bytes."""
        return b"ds3:aik%ss3:csk%ss6:rating%se" % (
            self.aik_cred.to_bytes(),
            self.csk_cred.to_bytes(),
            self.rating_cred.to_bytes(),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CredentialChain":
        spans: dict = {}
        return cls.from_record(decode(data, spans), data, spans)

    @property
    def aik_digest(self) -> str:
        return key_id_of(self.aik_cred.entity)


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    group: int | None
    reason: str | None


def verify_chain(chain: CredentialChain, group_registry: Mapping[int, bytes]) -> VerifyReport:
    """Check each link's signature, the key linkage between links, and that
    the group credential was issued under a registered group key. The group
    is the first gid in ``group_registry`` with that key."""
    if not group_registry:
        raise InvalidArgument("group registry must not be empty")

    group_public = chain.aik_cred.issuer_public
    group = next((gid for gid, public in group_registry.items() if public == group_public), None)
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
