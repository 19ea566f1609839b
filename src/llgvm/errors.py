"""Exception hierarchy shared by all solver modules."""


class LLGVMError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(LLGVMError):
    """An argument violates an operation precondition (rank/grid mismatch, bad range)."""


class StateCorruption(LLGVMError):
    """A state invariant is broken (e.g. the magnetization left the unit sphere)."""


class TimeStepError(LLGVMError):
    """Requested time step is outside the documented stable range."""


class BlowUpError(LLGVMError):
    """The run blew up (near-zero renormalization, antipodal field motion, NaN fields)."""


class DegenerateSliceError(LLGVMError):
    """A lattice plaquette is degenerate, so its solid angle is undefined."""


class ConfigError(LLGVMError):
    """One or more configuration entries are invalid; message lists all of them."""


class SnapshotError(LLGVMError):
    """A snapshot file is unreadable: bad magic, version, header, truncation or checksum."""
