"""Timing in reference-speed seconds.

The benchmark runs on shared machines whose speed drifts by 10-30 % over tens
of seconds, which is more than the regressions it must catch. So work is timed
in segments of about SEGMENT_S, a fixed calibration loop is timed between
segments, and each segment's seconds are scaled by CAL_REF_S over the mean of
the two calibration times around it. The result reads as seconds on a machine
whose calibration loop takes CAL_REF_S: the loop's time on the 2-vCPU machine
where the baseline in README.md was recorded. Raw seconds are kept as well.
"""

from __future__ import annotations

from time import perf_counter

CAL_REF_S = 0.11
CAL_ROUNDS = 300
SEGMENT_S = 1.0


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work: string building,
    dict updates, tuple allocation and sorting, like the library's own code."""
    t0 = perf_counter()
    table: dict = {}
    for r in range(CAL_ROUNDS):
        words = ["UD" * (i % 7) + "U" * (i % 5) + str(i) for i in range(300)]
        for w in words:
            table[w] = table.get(w, 0) + len(w)
        pairs = [(len(w), w[:3]) for w in words]
        pairs.sort()
        table[r] = sum(1 for c in "".join(words[:40]) if c == "U")
    return perf_counter() - t0


class Clock:
    """Accumulates raw and reference-speed seconds of work over one batch.

    Call start() before a batch, tick() at its operation boundaries (once the
    current segment has run for SEGMENT_S it is closed with a calibration) and
    finish() after it.
    """

    def __init__(self) -> None:
        self.last_cal = calibrate()
        self.raw = self.scaled = 0.0
        self.segment_start = perf_counter()

    def start(self) -> None:
        """Start timing a batch."""
        self.segment_start = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self.segment_start >= SEGMENT_S:
            self._close()

    def _close(self) -> None:
        seconds = perf_counter() - self.segment_start
        cal = calibrate()
        self.raw += seconds
        self.scaled += seconds * CAL_REF_S * 2 / (self.last_cal + cal)
        self.last_cal = cal
        self.segment_start = perf_counter()

    def finish(self) -> tuple[float, float]:
        """Close the batch; return its raw and reference-speed seconds."""
        self._close()
        raw, scaled = self.raw, self.scaled
        self.raw = self.scaled = 0.0
        return raw, scaled
