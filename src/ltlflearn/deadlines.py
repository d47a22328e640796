"""Cooperative deadline checks shared by the search phases."""

from __future__ import annotations

import time
from typing import Optional

# Candidates a search loop handles between two deadline checks.
DEADLINE_STRIDE = 4096


class DeadlineReached(Exception):
    """Raised between search steps once the configured deadline passes."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise DeadlineReached if the time.monotonic() deadline has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineReached()
