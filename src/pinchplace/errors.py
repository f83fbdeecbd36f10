"""Exception types shared across the package."""


class PinchError(Exception):
    """Base class for all package-specific failures."""


class NonFinite(PinchError):
    """An objective produced NaN or infinity where a finite value was required."""


class Infeasible(PinchError):
    """No feasible point exists for the requested constraints."""


class DomainError(PinchError):
    """The requested operation is not defined for these inputs."""


class ConfigError(PinchError):
    """An experiment or CLI configuration is invalid."""


class ParseError(PinchError):
    """A config or instance file could not be parsed."""


class CertificationError(PinchError):
    """A closed-form result disagreed with its independent check or broke one of its invariants."""


def require(ok: bool, invariant: str) -> None:
    """Raise CertificationError naming the invariant unless ok; unlike assert, it holds under -O."""
    if not ok:
        raise CertificationError(f"invariant violated: {invariant}")
