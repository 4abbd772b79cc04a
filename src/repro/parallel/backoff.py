"""Deterministic jittered exponential backoff.

Retry loops across the campaign service -- the coordinator's shard
reassignment, the shard worker's idle polling, the client's submit
retries -- share one delay policy.  Two properties matter:

* **Exponential with jitter.**  Retrying a failed task immediately is
  the worst possible schedule: a transient fault (an OOM blip, a
  thundering herd of workers hammering a coordinator) is still there,
  and synchronized retries arrive together.  Delays grow
  geometrically and are spread by a jitter fraction so independent
  retriers decorrelate.
* **Deterministic under a seed.**  The jitter is *not* drawn from a
  PRNG shared with anything else -- it is a pure hash of
  ``(seed, key, attempt)``.  Two runs with the same seed back off by
  the same delays, chaos tests replay exactly, and the differential
  suites stay byte-identical (delays never influence verdicts, and
  the delay *sequence* itself is reproducible).

The policy object is a frozen dataclass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffPolicy:
    """Delay schedule for attempt ``1, 2, 3, ...`` of a keyed retry.

    The raw delay for attempt ``n`` is ``base * factor**(n-1)``,
    capped at ``max_delay``; the returned delay is the raw delay
    shrunk by up to ``jitter`` of itself, where the shrink fraction is
    a pure hash of ``(seed, key, attempt)`` -- full determinism, no
    shared PRNG state.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 5.0
    #: Fraction of the raw delay that jitter may remove, in [0, 1].
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0 or self.factor < 1 or self.max_delay < 0:
            raise ValueError(
                f"backoff needs base >= 0, factor >= 1, max_delay >= 0: "
                f"base={self.base}, factor={self.factor}, "
                f"max_delay={self.max_delay}"
            )
        if not 0 <= self.jitter <= 1:
            raise ValueError(
                f"backoff jitter must lie in [0, 1]: {self.jitter}"
            )

    def fraction(self, key: str, attempt: int) -> float:
        """The deterministic jitter fraction in [0, 1) for one retry."""
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8",
                                                  "backslashreplace")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        ``key`` names the thing being retried (a task index, a shard
        id); different keys jitter independently, the same key replays
        the same schedule.
        """
        attempt = max(1, int(attempt))
        raw = min(self.max_delay, self.base * self.factor ** (attempt - 1))
        if not self.jitter or not raw:
            return raw
        return raw * (1.0 - self.jitter * self.fraction(key, attempt))
