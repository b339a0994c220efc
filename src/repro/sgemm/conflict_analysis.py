"""Static FFMA register-bank-conflict analysis (paper Figure 8).

Figure 8 compares, for several SGEMM binaries, the fraction of FFMA
instructions whose distinct source registers collide on a register bank
(2-way or 3-way).  The analyser below walks an assembled kernel, classifies
every FFMA, and produces the same three-way breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.register_file import _BANK_CODE_BY_RESIDUE
from repro.isa.assembler import Kernel


@dataclass(frozen=True)
class ConflictReport:
    """Breakdown of FFMA operand-bank conflicts for one kernel.

    Attributes
    ----------
    kernel_name:
        Name of the analysed kernel.
    ffma_count:
        Number of FFMA instructions analysed.
    no_conflict:
        FFMAs whose distinct sources sit on distinct banks.
    two_way:
        FFMAs with a 2-way bank conflict.
    three_way:
        FFMAs with a 3-way (or worse) bank conflict.
    """

    kernel_name: str
    ffma_count: int
    no_conflict: int
    two_way: int
    three_way: int

    @property
    def no_conflict_fraction(self) -> float:
        """Fraction of FFMAs without a conflict (0 when there are no FFMAs)."""
        return self.no_conflict / self.ffma_count if self.ffma_count else 0.0

    @property
    def two_way_fraction(self) -> float:
        """Fraction of FFMAs with a 2-way conflict."""
        return self.two_way / self.ffma_count if self.ffma_count else 0.0

    @property
    def three_way_fraction(self) -> float:
        """Fraction of FFMAs with a 3-way conflict."""
        return self.three_way / self.ffma_count if self.ffma_count else 0.0

    def as_percentages(self) -> dict[str, float]:
        """Figure-8 style percentage breakdown."""
        return {
            "no_conflict": 100.0 * self.no_conflict_fraction,
            "two_way": 100.0 * self.two_way_fraction,
            "three_way": 100.0 * self.three_way_fraction,
        }


def analyse_ffma_conflicts(kernel: Kernel) -> ConflictReport:
    """Classify every FFMA of ``kernel`` by operand register-bank conflict degree.

    Memoized per kernel instance: the optimization pipeline and the autotuner
    both analyse the same (immutable) kernel several times.
    """
    cached = kernel.__dict__.get("_ffma_conflict_report")
    if cached is not None:
        return cached
    ffma_count = 0
    no_conflict = 0
    two_way = 0
    three_way = 0
    codes = _BANK_CODE_BY_RESIDUE
    for instruction in kernel.instructions:
        if not instruction.is_ffma:
            continue
        ffma_count += 1
        # Duplicate sources never conflict with themselves, hence the set;
        # the counting loop inlines ``bank_conflict_degree`` for speed.
        counts = [0, 0, 0, 0]
        for reg in set(instruction.source_register_indices):
            if reg >= 0:
                counts[codes[reg % 8]] += 1
        degree = max(counts)
        if degree <= 1:
            no_conflict += 1
        elif degree == 2:
            two_way += 1
        else:
            three_way += 1
    report = ConflictReport(
        kernel_name=kernel.name,
        ffma_count=ffma_count,
        no_conflict=no_conflict,
        two_way=two_way,
        three_way=three_way,
    )
    kernel.__dict__["_ffma_conflict_report"] = report
    return report


def inherit_ffma_conflicts(kernel: Kernel, source: Kernel) -> None:
    """Memoize on ``kernel``, which holds ``source``'s instructions in another
    order, ``source``'s report under ``kernel``'s name instead of classifying
    every FFMA again."""
    kernel.__dict__["_ffma_conflict_report"] = replace(
        analyse_ffma_conflicts(source), kernel_name=kernel.name
    )


def format_conflict_table(reports: list[ConflictReport]) -> str:
    """Render several conflict reports as an aligned text table (Figure 8)."""
    header = f"{'kernel':44s} {'FFMAs':>7s} {'none %':>8s} {'2-way %':>8s} {'3-way %':>8s}"
    lines = [header, "-" * len(header)]
    for report in reports:
        pct = report.as_percentages()
        lines.append(
            f"{report.kernel_name:44s} {report.ffma_count:7d} "
            f"{pct['no_conflict']:8.1f} {pct['two_way']:8.1f} {pct['three_way']:8.1f}"
        )
    return "\n".join(lines)
