"""Shared helpers: percentiles, memory, and the result line."""

from __future__ import annotations

import json
import resource
from typing import Dict, List, Sequence, Tuple

#: Fewest samples behind a reported p90 (ten beyond the percentile).
P90_MIN_SAMPLES = 100

#: Times ``setup`` is repeated per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Applied operations are also counted per block of this length, for
#: the report's per-second goodput.
GOODPUT_BLOCK_S = 1.0


def pct(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] (0.0 when empty)."""
    if not samples:
        return 0.0
    xs = sorted(samples)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Goodput:
    """Applied operations counted per block of :data:`GOODPUT_BLOCK_S`
    from ``t0``; the rate is every operation applied before the clock
    stopped over the measured time.  Writes complete a window at a
    time, so single blocks are lumpy and a median over blocks spread
    more across runs than this mean."""

    def __init__(self, t0: float) -> None:
        self.t0 = t0
        self.blocks: List[int] = []

    def add(self, t: float) -> None:
        k = int((t - self.t0) / GOODPUT_BLOCK_S)
        while len(self.blocks) <= k:
            self.blocks.append(0)
        self.blocks[k] += 1

    def rate(self, seconds: float) -> float:
        whole = self.blocks[: max(1, int(seconds / GOODPUT_BLOCK_S))]
        return sum(whole) / (len(whole) * GOODPUT_BLOCK_S) if whole else 0.0


class Latencies:
    """Named latency sample lists (seconds) with their report."""

    def __init__(self) -> None:
        self.by_name: Dict[str, List[float]] = {}

    def add(self, name: str, seconds: float) -> None:
        self.by_name.setdefault(name, []).append(seconds)

    def ms(self, name: str, q: float) -> float:
        return pct(self.by_name.get(name, ()), q) * 1e3

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "samples": len(xs),
                "p50_ms": pct(xs, 0.50) * 1e3,
                "p90_ms": pct(xs, 0.90) * 1e3,
                "p99_ms": pct(xs, 0.99) * 1e3,
            }
            for name, xs in sorted(self.by_name.items())
        }


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Tuple[float, str]],
) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
