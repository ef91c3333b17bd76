"""Logical clock injected into every service so expiry windows, receipts and
transcripts are deterministic. No wall-clock time enters the system."""

from __future__ import annotations


class SimClock:
    def __init__(self):
        self._now = 0

    def now(self) -> int:
        return self._now

    def advance(self, seconds: int = 1) -> int:
        if seconds < 0:
            raise ValueError("clock cannot move backwards")
        self._now += int(seconds)
        return self._now
