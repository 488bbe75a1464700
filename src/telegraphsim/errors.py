"""Exception types shared across the simulator."""


class TelegraphError(Exception):
    """Base class for all simulator errors."""


class InvalidLabel(TelegraphError):
    """A component label was built from out-of-range fields."""


class DuplicateLabel(TelegraphError):
    """Two components in one chain share a label."""


class InvalidStep(TelegraphError):
    """The integrator was asked for a non-positive step."""


class OracleUnsupported(TelegraphError):
    """The brute-force integrator only handles acyclic flow graphs."""


class IllegalHit(TelegraphError):
    """A collapse was requested on a component that is not a ready target."""


class InvalidDepth(TelegraphError):
    """Epoch graphs need at least one cycle of depth."""


class NotExtensible(TelegraphError):
    """Frontier extension was requested for a label not on the frontier."""


class EmptyLog(TelegraphError):
    """Telegraph segmentation needs at least one detector hit."""


class NoWeakBranch(TelegraphError):
    """Weak-photon timing is undefined without an active weak laser."""


class ConfigError(TelegraphError):
    """A run configuration document or flag set is malformed."""


class InvariantBreach(TelegraphError):
    """A runtime conservation or postcondition check failed mid-run."""
