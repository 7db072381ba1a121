"""Cycle-trace capture and Fig. 3 rendering for the NTT unit.

Two consumers:

* debugging / teaching: :class:`NttTrace` records every read and write
  the schedule performs (cycle, core, port, block, address) so a failing
  configuration can be inspected like a waveform;
* ``python -m repro fig3``: :func:`render_fig3` draws the paper's three-regime
  access-pattern figure as text from the recorded trace, so the figure
  is literally regenerated from executed schedule data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ntt_unit import NttSchedule


@dataclass(frozen=True)
class TraceEvent:
    """One port access of one core in one cycle."""

    stage: int
    cycle: int
    core: int
    kind: str          # "R" or "W"
    word: int

    def block(self, block_boundary: int) -> str:
        return "upper" if self.word >= block_boundary else "lower"


@dataclass
class NttTrace:
    """Recorded access trace of a full transform schedule."""

    n: int
    cores: int
    events: list[TraceEvent] = field(default_factory=list)

    @classmethod
    def capture(cls, n: int, cores: int = 2,
                pipeline_depth: int = 11) -> NttTrace:
        schedule = NttSchedule(n, cores)
        trace = cls(n=n, cores=cores)
        for stage in range(1, schedule.log_n + 1):
            access = schedule.stage_access(stage, pipeline_depth)
            for core, stamped in enumerate(access.reads):
                for cycle, word in stamped:
                    trace.events.append(
                        TraceEvent(stage, cycle, core, "R", word)
                    )
            for core, stamped in enumerate(access.writes):
                for cycle, word in stamped:
                    trace.events.append(
                        TraceEvent(stage, cycle, core, "W", word)
                    )
        return trace

    def stage_events(self, stage: int,
                     kind: str | None = None) -> list[TraceEvent]:
        return [
            e for e in self.events
            if e.stage == stage and (kind is None or e.kind == kind)
        ]

    def port_occupancy(self, stage: int) -> dict[tuple[int, str, str], int]:
        """Accesses per (cycle, kind, block) — must never exceed one."""
        boundary = self.n // 4
        occupancy: dict[tuple[int, str, str], int] = {}
        for event in self.stage_events(stage):
            key = (event.cycle, event.kind, event.block(boundary))
            occupancy[key] = occupancy.get(key, 0) + 1
        return occupancy

    def verify_port_limits(self) -> None:
        """Raise AssertionError if any block port is double-booked."""
        log_n = self.n.bit_length() - 1
        for stage in range(1, log_n + 1):
            for key, count in self.port_occupancy(stage).items():
                assert count <= 1, f"stage {stage}: port collision at {key}"


def render_fig3(n: int = 4096, head: int = 3) -> str:
    """Draw the paper's Fig. 3 from a captured schedule trace.

    For each of the figure's regimes, prints the first ``head`` read
    addresses of both cores, annotated with the index gap, in the layout
    of the paper's caption.
    """
    schedule = NttSchedule(n, 2)
    log_n = schedule.log_n
    shown_stages = [1, log_n - 2, log_n - 1, log_n]
    lines = [f"Memory access during two-core NTT (n = {n})", ""]
    for stage in shown_stages:
        m = 2 << (stage - 1)
        gap = m // 2
        reads = schedule.read_order(stage)
        seq0 = ", ".join(str(w) for w in reads[0][: 2 * head])
        seq1 = ", ".join(str(w) for w in reads[1][: 2 * head])
        lines.append(f"Iteration m = {m}   (index gap = {gap})")
        lines.append(f"  core 1 reads: {seq0}, ...")
        lines.append(f"  core 2 reads: {seq1}, ...")
        if schedule.is_interleave_stage(stage):
            lines.append("  (order of the second core inverted to avoid "
                         "block conflicts — paper Sec. V-A3)")
        lines.append("")
    return "\n".join(lines)
