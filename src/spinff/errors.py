"""Exception types shared across the package."""


class SpinFFError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpinFFError):
    """Bad model kind, malformed run configuration, unknown keys."""


class DomainError(SpinFFError):
    """Non-finite couplings or parameters outside their declared range."""


class DegeneracyError(SpinFFError):
    """Eigenvalue gap around the tracked state below GAP_MIN; gauge undefined."""


class GaugeError(SpinFFError):
    """Gauge anchor component too small at R, or phase residue too large."""


class ConsistencyError(SpinFFError):
    """Analytic/numeric mismatch: closed-form spectrum, or a state outside its symmetry sector."""


class StepSizeError(SpinFFError):
    """Integrator step-error estimate or norm drift exceeded tolerance; a smaller dt is needed."""
