"""Block-level pipeline simulation (paper Sec. V-B2, V-C).

The paper's lift and scale units are chains of blocks connected in a
block-level pipeline: block b has a latency (cycles from accepting a
coefficient to emitting it) and an initiation interval (cycles between
consecutive coefficients). The classic recurrence for the time
coefficient c leaves block b:

    finish(b, c) = max(finish(b-1, c),            # data dependency
                       finish(b, c-1) + ii_b)     # structural hazard
                   ... + latency adjustment

This module provides both an event-driven simulator of that recurrence
(:func:`simulate_block_pipeline`, used by tests on small counts) and the
closed form it converges to (:func:`pipeline_total_cycles`):

    total = sum(latencies) + (count - 1) * max(initiation intervals)

i.e. a fill of one full traversal plus steady-state issue at the
bottleneck block's rate — the structure behind the paper's "the maximum
throughput is determined by the slowest component in the pipeline".
"""

from __future__ import annotations

from ..errors import HardwareModelError


def simulate_block_pipeline(count: int, latencies: tuple[int, ...],
                            intervals: tuple[int, ...] | None = None
                            ) -> list[list[int]]:
    """Event-driven execution of the pipeline recurrence.

    Returns ``finish[c][b]``: the cycle in which coefficient c leaves
    block b. ``intervals`` defaults to the latencies (each block is busy
    for its full latency per coefficient, the paper's sequential blocks).
    """
    if count < 1:
        raise HardwareModelError("pipeline needs at least one coefficient")
    if intervals is None:
        intervals = latencies
    if len(intervals) != len(latencies):
        raise HardwareModelError("one initiation interval per block")
    blocks = len(latencies)
    finish = [[0] * blocks for _ in range(count)]
    for c in range(count):
        for b in range(blocks):
            ready = finish[c][b - 1] if b else 0
            busy_until = finish[c - 1][b] - latencies[b] + intervals[b] \
                if c else 0
            start = max(ready, busy_until)
            finish[c][b] = start + latencies[b]
    return finish


def pipeline_total_cycles(count: int, latencies: tuple[int, ...]) -> int:
    """Closed form of the recurrence: the simulation's end cycle.

    Exact when every block's initiation interval equals its latency, as
    in the lift and scale units: the fill is one traversal (the sum of
    the latencies) and steady-state issue runs at the slowest block.
    """
    return sum(latencies) + (count - 1) * max(latencies)
