"""Sizing constants and the rule memo of Reptile's phase-2 hot path.

Fork-safety contract: the memo cache is held on the corrector
*instance*, never at module scope, so forked workers each get a
copy-on-write snapshot and mutate only their own; hit/miss/evict
counters are harvested per chunk into the stats dict and merged by the
parallel engine exactly like the other counters.  A memo cache must
never be shared through module globals — that is precisely the REP301
hazard the engine's install-before-fork pattern exists to avoid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids a cycle through reptile
    from .reptile.tile_correct import TileRule

#: Max rules a corrector's memo holds before bulk eviction (per worker
#: process).
MEMO_CAPACITY = 1 << 20
#: Target Bloom false-positive rate of the spectrum/tile prefilters.
PREFILTER_FP_RATE = 0.01


class HotpathConfig:
    """Field-less, argument-less holder of the two constants above.

    Nothing is configurable here; the class exists only because the
    benchmark harness reads ``HotpathConfig().prefilter_fp_rate`` to
    build its per-layer structures at the production rate.
    """

    __slots__ = ()
    memo_capacity = MEMO_CAPACITY
    prefilter_fp_rate = PREFILTER_FP_RATE


class TileMemoCache:
    """Bounded FIFO memo of Algorithm 1 rules.

    Keys are ``(tile_code, d1, d2)``; values are
    :class:`~repro.core.reptile.tile_correct.TileRule`.  The cache is
    only sound while the spectrum/tile tables and thresholds backing
    the rules stay fixed — one cache per fitted corrector, never
    shared across fits.

    Eviction is bulk FIFO: when full, the oldest half is dropped in one
    pass (dict preserves insertion order), keeping the hot recent
    window without per-hit bookkeeping.
    """

    def __init__(self, capacity: int = MEMO_CAPACITY):
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self.capacity = int(capacity)
        self._store: dict[tuple[int, int, int], TileRule] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: tuple[int, int, int]) -> TileRule | None:
        rule = self._store.get(key)
        if rule is None:
            self.misses += 1
        else:
            self.hits += 1
        return rule

    def put(self, key: tuple[int, int, int], rule: TileRule) -> None:
        if key in self._store:
            return
        if len(self._store) >= self.capacity:
            drop = len(self._store) - self.capacity // 2
            for stale in list(self._store.keys())[:drop]:
                del self._store[stale]
            self.evictions += drop
        self._store[key] = rule

    def reset_counters(self) -> None:
        """Zero the telemetry counters without touching the cached
        rules.  Runs that report per-chunk deltas call this on entry so
        a preceding *unreported* run (e.g. a plain ``correct()`` on the
        same corrector) cannot leak its pending counts into the next
        harvest."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def harvest(self) -> dict[str, int]:
        """Return and reset the counters (per-chunk delta reporting,
        merged downstream by the parallel engine)."""
        out = {
            "hotpath.memo_hits": self.hits,
            "hotpath.memo_misses": self.misses,
            "hotpath.memo_evictions": self.evictions,
        }
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        return out
