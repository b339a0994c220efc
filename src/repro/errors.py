"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can distinguish library failures from programming mistakes with a
single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ArchitectureError(ReproError):
    """Raised for invalid or inconsistent machine descriptions."""


class IsaError(ReproError):
    """Base class for ISA-level failures (parsing, encoding, validation)."""


class AssemblyError(IsaError):
    """Raised when assembly text cannot be parsed or assembled."""


class EncodingError(IsaError):
    """Raised when an instruction cannot be encoded into machine words."""


class ValidationError(IsaError):
    """Raised when a kernel violates an ISA or resource constraint."""


class SimulationError(ReproError):
    """Raised when the timing/functional simulator reaches an invalid state."""


class ResourceLimitError(ReproError):
    """Raised when a kernel configuration exceeds SM resource limits."""


class ModelError(ReproError):
    """Raised when the analytic performance model is given invalid inputs."""


class KernelGenerationError(ReproError):
    """Raised when an SGEMM kernel cannot be generated for a configuration."""


class RegisterAllocationError(ReproError):
    """Raised when register allocation cannot satisfy its constraints."""


class TileError(ReproError):
    """Base class for loop-nest IR failures (:mod:`repro.tile`)."""


class ScheduleError(TileError):
    """Raised when a scheduling primitive cannot legally be applied.

    Carries structured context alongside the message: ``primitive`` names the
    rejecting primitive and ``dependence`` (when the rejection is a legality
    decision) is the blocking :class:`repro.tile.deps.Dependence`.
    """

    def __init__(self, message: str, *, primitive: str | None = None,
                 dependence: object | None = None) -> None:
        super().__init__(message)
        self.primitive = primitive
        self.dependence = dependence


class LoweringError(TileError):
    """Raised when a scheduled loop nest cannot be lowered to SASS."""


class KernelCacheError(ReproError):
    """Raised when the durable kernel cache cannot serve or build a request.

    The root of the service's typed-failure contract: under any fault —
    injected or real — ``get_kernel`` either returns a bit-exact kernel or
    raises a :class:`KernelCacheError` subclass, never an untyped error and
    never a wrong kernel.
    """


class StoreUnavailableError(KernelCacheError):
    """The durable store is unusable (I/O errors persisted past retries).

    Carries the routine ``key`` being served and the underlying ``cause``
    (typically an :class:`OSError` such as ``EIO`` or ``ENOSPC``).
    """

    def __init__(self, message: str, *, key: str = "", cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.key = key
        self.cause = cause


class BuildFailedError(KernelCacheError):
    """The build of one routine key failed deterministically.

    Carries the ``key`` and the causing exception.  Also raised by poisoned
    keys: once a build fails deterministically, followers deduped onto the
    same key fail fast with this error (until the poison TTL lapses)
    instead of re-running the doomed build.
    """

    def __init__(self, message: str, *, key: str = "", cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.key = key
        self.cause = cause
