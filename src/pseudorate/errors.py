"""Shared error base. Every service failure is a :class:`TicketError` whose
stable machine-readable ``code`` names it; the wire layer sends that code in
its error responses, and clients raise it again as the same code."""

from __future__ import annotations


class TicketError(Exception):
    code = "internal"

    def __init__(self, message: str = "", *, code: str | None = None):
        if code is not None:
            self.code = code
        super().__init__(message or self.code)


class InvalidArgument(TicketError):
    code = "invalid-argument"


class UnknownGroup(TicketError):
    code = "unknown-group"
