"""Cooperative deadline checks shared by the search phases."""

from __future__ import annotations

import time
from typing import Optional, Sequence

# Candidates a search loop handles between two deadline checks.
DEADLINE_STRIDE = 4096


class DeadlineReached(Exception):
    """Raised between search steps once the configured deadline passes."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise DeadlineReached if the time.monotonic() deadline has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineReached()


def split_runs(entries: Sequence, stride: int, start: int = 0) -> list[tuple[Sequence, int]]:
    """`entries[start:]` in runs of at most `stride`, each with its length: a
    loop counts a run at once, checking the deadline before it if due."""
    runs = [entries[k : k + stride] for k in range(start, len(entries), stride)]
    return [(run, len(run)) for run in runs]
