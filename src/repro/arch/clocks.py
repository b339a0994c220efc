"""Clock domain modelling.

GT200 and Fermi GPUs have two clock domains inside an SM: the *core clock*
drives the schedulers while the *shader clock* (roughly twice the core clock)
drives the SPs.  Kepler (GK104) dropped the separate shader clock — all SM
functional units run at the core clock — but, following the paper, we keep the
term "shader clock" for Kepler so that throughput numbers are comparable
across generations (on Kepler the shader clock simply equals the core clock).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ArchitectureError


@dataclass(frozen=True)
class ClockDomains:
    """Clock rates of a GPU, in MHz.

    Attributes
    ----------
    core_mhz:
        The scheduler (core) clock in MHz.
    shader_mhz:
        The shader clock in MHz.  Equal to ``core_mhz`` on Kepler-class parts.
    boost_mhz:
        Optional boost clock in MHz (used for Kepler throughput conversion in
        the paper: "all throughput data is calculated by boost clock of
        1058 MHz").  Defaults to the shader clock when not provided.
    """

    core_mhz: float
    shader_mhz: float
    boost_mhz: float | None = None

    def __post_init__(self) -> None:
        if self.core_mhz <= 0 or self.shader_mhz <= 0:
            raise ArchitectureError("clock rates must be positive")
        if self.boost_mhz is not None and self.boost_mhz <= 0:
            raise ArchitectureError("boost clock must be positive when given")

    @property
    def has_separate_shader_clock(self) -> bool:
        """Whether the part uses a distinct (hot) shader clock domain."""
        return abs(self.shader_mhz - self.core_mhz) > 1e-9

    def cycles_to_seconds(self, shader_cycles: float) -> float:
        """Convert a shader-cycle count into seconds."""
        if shader_cycles < 0:
            raise ArchitectureError("cycle count must be non-negative")
        return shader_cycles / (self.shader_mhz * 1e6)

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert a duration in seconds into shader cycles."""
        if seconds < 0:
            raise ArchitectureError("duration must be non-negative")
        return seconds * self.shader_mhz * 1e6
