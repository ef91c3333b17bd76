"""Software stand-in for the platform trust anchor.

Emulates the behaviours the protocol relies on: shielded key storage,
identity-key lifecycle (create, activate via a sealed blob, certify other
keys), wrapped signing keys that load only on the instance that created
them, and the hard rule that identity keys never sign arbitrary payloads.

Private key material never appears in any value an instance returns:
wrapped keys are AEAD ciphertexts under a per-instance wrap key, and
activation blobs are sealed to the per-instance endorsement key.
"""

from __future__ import annotations

import random
import secrets
import threading
from dataclasses import dataclass, field
from functools import partial

from . import crypto
from .crypto import Credential, KeyPair, SealError
from .encoding import EncodingError
from .errors import TicketError

KIND_AIK = "aik"
KIND_CSK = "csk"
KIND_EK = "ek"


@dataclass
class ShieldedKey:
    handle: int
    pair: KeyPair = field(repr=False)
    kind: str
    activated: bool = False

    @property
    def public(self) -> bytes:
        return self.pair.public


@dataclass(frozen=True)
class WrappedKey:
    public: bytes
    private_blob: bytes


class TpmInstance:
    """One emulated module. Commands are serialized per instance; distinct
    instances are fully independent."""

    def __init__(self, rng: random.Random | None = None):
        self._randbytes = rng.randbytes if rng is not None else secrets.token_bytes
        self._lock = threading.RLock()
        self._keys: dict[int, ShieldedKey] = {}
        self._next_handle = 1
        self._wrap_key = self._randbytes(32)
        self._wrap_seq = 0
        self._created: dict[bytes, KeyPair] = {}  # public -> pair, for each wrapped key made here
        ek_pair = crypto.generate_sealing_keypair(seed=self._randbytes(32))
        self._ek = ShieldedKey(handle=0, pair=ek_pair, kind=KIND_EK)
        self._keys[0] = self._ek  # addressable, but refuses every signing role

    @property
    def ek_public(self) -> bytes:
        return self._ek.pair.public

    # -- identity keys ------------------------------------------------------

    def make_identity(self) -> tuple[int, bytes]:
        """Create a fresh, not-yet-activated identity key; returns (handle, public)."""
        with self._lock:
            key = self._store(crypto.generate_keypair(seed=self._randbytes(32)), KIND_AIK)
            return key.handle, key.public

    def activate_identity(self, handle: int, activation_blob: bytes) -> Credential:
        """Open a blob sealed to this platform's endorsement key, mark the
        identity key usable, and hand back the credential it carries.
        Blobs are single use."""
        with self._lock:
            key = self._get(handle)
            if key.kind != KIND_AIK:
                raise TicketError("handle is not an identity key", code="invalid-handle")
            if key.activated:
                raise TicketError("identity already activated", code="already-activated")
            try:
                plaintext = crypto.unseal(self._ek.pair, activation_blob)
            except SealError as exc:
                raise TicketError("blob not sealed to this platform", code="wrong-platform") from exc
            try:
                aik, cred, _ = crypto.read_activation_payload(plaintext)
                credential = Credential.from_bytes(cred)
            except EncodingError as exc:
                raise TicketError("undecodable activation blob", code="malformed-blob") from exc
            if aik != key.public:
                raise TicketError("blob targets a different identity key", code="aik-mismatch")
            key.activated = True
            return credential

    # -- certified signing keys --------------------------------------------

    def cmk_create_key(self) -> WrappedKey:
        """New signing pair whose private half is wrapped for this instance only."""
        with self._lock:
            pair = crypto.generate_keypair(seed=self._randbytes(32))
            self._wrap_seq += 1
            nonce = self._wrap_seq.to_bytes(12, "big")
            cipher = crypto.aead_encrypt(self._wrap_key, nonce, pair.private, pair.public)
            self._created[pair.public] = pair
            return WrappedKey(public=pair.public, private_blob=nonce + cipher)

    def load_key(self, wrapped: WrappedKey) -> int:
        with self._lock:
            blob = wrapped.private_blob
            if len(blob) < 12 + 16:
                raise TicketError("wrapped blob too short", code="malformed-blob")
            nonce, cipher = blob[:12], blob[12:]
            try:
                crypto.aead_decrypt(self._wrap_key, nonce, cipher, wrapped.public)
                pair = self._created[wrapped.public]
            except (SealError, KeyError) as exc:
                raise TicketError("wrapped key was not created by this instance", code="foreign-blob") from exc
            return self._store(pair, KIND_CSK).handle

    def certify_key(self, aik_handle: int, csk_handle: int) -> Credential:
        """Statement by an activated identity key that the signing key lives
        in shielded storage on this platform."""
        with self._lock:
            aik = self._get(aik_handle)
            csk = self._get(csk_handle)
            if aik.kind != KIND_AIK or csk.kind != KIND_CSK:
                raise TicketError("certify needs an identity key and a signing key", code="invalid-handle")
            if not aik.activated:
                raise TicketError("identity key not activated", code="not-activated")
            meta = {
                "kind": "certified-signing-key",
                "statement": "key-held-in-shielded-location-never-revealed",
            }
            return crypto.certify(aik.public, partial(crypto.sign, aik.pair), csk.public, meta)

    # -- signing -------------------------------------------------------------

    def sign_with_key(self, handle: int, payload: bytes) -> bytes:
        """Sign arbitrary payload bytes. Only signing keys may do this;
        identity and endorsement keys are refused unconditionally."""
        with self._lock:
            key = self._get(handle)
            if key.kind == KIND_AIK:
                raise TicketError("identity keys never sign arbitrary data", code="forbidden-aik-signing")
            if key.kind == KIND_EK:
                raise TicketError("endorsement key never signs", code="forbidden-ek-signing")
            return crypto.sign(key.pair, payload)

    def sign_issuance_nonce(self, handle: int, nonce: bytes) -> bytes:
        """Scoped challenge-response: an identity key proves possession by
        signing a domain-tagged issuance nonce, and nothing else."""
        with self._lock:
            key = self._get(handle)
            if key.kind != KIND_AIK:
                raise TicketError("challenge-response needs an identity key", code="invalid-handle")
            return crypto.sign(key.pair, crypto.ISSUANCE_NONCE_DOMAIN + nonce)

    # -- internals -----------------------------------------------------------

    def _store(self, pair: KeyPair, kind: str) -> ShieldedKey:
        handle = self._next_handle
        self._next_handle += 1
        key = ShieldedKey(handle=handle, pair=pair, kind=kind)
        self._keys[handle] = key
        return key

    def _get(self, handle: int) -> ShieldedKey:
        try:
            return self._keys[handle]
        except KeyError:
            raise TicketError(f"unknown handle {handle}", code="invalid-handle") from None
