"""Fig. 3 rendering for the NTT unit.

``python -m repro fig3``: :func:`render_fig3` draws the paper's
three-regime access-pattern figure as text from the two-core
:class:`~repro.hw.ntt_unit.NttSchedule` read order, so the figure is
regenerated from the schedule the unit executes. The port limits that
schedule must respect are checked by the stepped unit
(:meth:`~repro.hw.ntt_unit.DualCoreNttUnit.run_strict`).
"""

from __future__ import annotations

from .ntt_unit import NttSchedule


def render_fig3(n: int = 4096, head: int = 3) -> str:
    """Draw the paper's Fig. 3 from the schedule's read order.

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
