"""Client driving ticket acquisition and redemption against the local
platform module and the remote services.

The wallet only ever changes when a protocol run completes: a ticket is
appended after successful activation, and marked locally spent only on an
accepted rating. A fault at any message boundary leaves the wallet in its
prior state.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from functools import partial

from . import crypto
from .crypto import Credential, CredentialChain
from .errors import TicketError
from .privacy_ca import DeniedRequest
from .reputation import Ack, RatingPayload, Reject
from .tpm import TpmInstance


class TicketDenied(TicketError):
    code = "denied"

    def __init__(self, reason: str):
        super().__init__(f"ticket denied: {reason}")
        self.reason = reason


STATE_FRESH = "fresh"
STATE_SPENT = "spent-local"

RATING_META = {"kind": "rating"}


@dataclass
class Ticket:
    aik_handle: int
    credential: Credential
    group: int
    state: str = STATE_FRESH


class TrustedAgent:
    """One wallet over one platform module; talks to the certification
    authority and the reputation system through their protocol clients."""

    def __init__(
        self,
        tpm: TpmInstance,
        pca,
        rs,
        *,
        user_account: str,
        rs_id: str,
        rng: random.Random | None = None,
    ):
        self.tpm = tpm
        self._pca = pca
        self._rs = rs
        self.user_account = user_account
        self.rs_id = rs_id
        self._randbytes = rng.randbytes if rng is not None else secrets.token_bytes
        self.platform_id: str | None = None
        self.tickets: list[Ticket] = []

    # -- registration ------------------------------------------------------

    def register(self) -> str:
        self.platform_id = self._pca.register_platform(self.tpm.ek_public, self.user_account)
        return self.platform_id

    # -- acquisition ---------------------------------------------------------

    def acquire_ticket(self, group: int) -> Ticket:
        """Run the acquisition protocol; the wallet gains a ticket only after
        the identity key is activated."""
        if self.platform_id is None:
            raise TicketError("platform not registered", code="unregistered-platform")
        handle, aik_public = self.tpm.make_identity()
        result = self._pca.request_credential(aik_public, group, self.platform_id)
        if isinstance(result, DeniedRequest):
            raise TicketDenied(result.reason)
        proof = self.tpm.sign_issuance_nonce(handle, result.nonce)
        blob = self._pca.complete_handshake(result.nonce, proof)
        credential = self.tpm.activate_identity(handle, blob)
        ticket = Ticket(aik_handle=handle, credential=credential, group=group)
        self.tickets.append(ticket)
        return ticket

    def fresh_tickets(self) -> list[Ticket]:
        return [t for t in self.tickets if t.state == STATE_FRESH]

    # -- redemption -----------------------------------------------------------

    def make_payload(self, subject: str, score: int, comment: str = "") -> RatingPayload:
        return RatingPayload(
            subject=subject,
            score=score,
            comment=comment,
            nonce=self._randbytes(16),
            rs_id=self.rs_id,
        )

    def build_chain(self, ticket: Ticket, payload: RatingPayload) -> CredentialChain:
        """Fresh signing key, certified under the ticket's identity key, then
        used to sign the rating payload."""
        wrapped = self.tpm.cmk_create_key()
        csk_handle = self.tpm.load_key(wrapped)
        csk_cred = self.tpm.certify_key(ticket.aik_handle, csk_handle)
        sign = partial(self.tpm.sign_with_key, csk_handle)
        rating_cred = crypto.certify(wrapped.public, sign, payload.canonical_bytes(), RATING_META)
        return CredentialChain(rating_cred=rating_cred, csk_cred=csk_cred, aik_cred=ticket.credential)

    def submit_chain(self, ticket: Ticket, payload: RatingPayload, chain: CredentialChain) -> Ack | Reject:
        result = self._rs.submit_rating(payload, chain)
        if isinstance(result, Ack):
            ticket.state = STATE_SPENT
        return result

    def redeem_ticket(self, ticket: Ticket, payload: RatingPayload) -> Ack | Reject:
        return self.submit_chain(ticket, payload, self.build_chain(ticket, payload))
