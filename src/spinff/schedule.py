"""Fast-forward time machinery: velocity profile and advanced parameter.

The accelerated drive replays the adiabatic path R0 -> R0 + v_bar*T_FF in
time T_FF with the smooth velocity

    v(t) = v_bar * (1 - cos(2 pi t / T_FF)),

so v(0) = v(T_FF) = 0 and the driving Hamiltonian matches the bare one at
both endpoints.  The advanced parameter is the integral

    R(t) = R0 + v_bar * (t - T_FF/(2 pi) * sin(2 pi t / T_FF)).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Schedule:
    """(R0, v_bar, T_FF): start point, mean velocity, total duration."""

    R0: float
    v_bar: float
    T_FF: float

    def __post_init__(self):
        if not all(np.isfinite([self.R0, self.v_bar, self.T_FF])):
            raise DomainError("schedule parameters must be finite")
        if self.v_bar < 0:
            raise DomainError("v_bar must be nonnegative")
        if self.T_FF <= 0:
            raise DomainError("T_FF must be positive")

    @property
    def R_final(self):
        return self.R0 + self.v_bar * self.T_FF


def _check_range(s, t, clamp):
    t = np.asarray(t, dtype=float)
    if clamp:
        return np.clip(t, 0.0, s.T_FF)
    if np.any(t < 0.0) or np.any(t > s.T_FF):
        raise DomainError(f"t outside [0, {s.T_FF}]")
    return t


def velocity(s, t, *, clamp=False):
    """v(t); zero at both endpoints, peaking at 2*v_bar mid-protocol."""
    t = _check_range(s, t, clamp)
    v = s.v_bar * (1.0 - np.cos(2.0 * np.pi * t / s.T_FF))
    return float(v) if np.ndim(v) == 0 else v

def advanced_parameter(s, t, *, clamp=False):
    """R at advanced time; its t-derivative is velocity(s, t)."""
    t = _check_range(s, t, clamp)
    r = s.R0 + s.v_bar * (t - s.T_FF / (2.0 * np.pi) * np.sin(2.0 * np.pi * t / s.T_FF))
    return float(r) if np.ndim(r) == 0 else r


def step_count(s, dt):
    """T_FF / dt as a whole step count in [2, 2**53]; DomainError otherwise."""
    ratio = s.T_FF / dt
    steps = round(ratio) if np.isfinite(ratio) else 0
    if not 2 <= steps <= 2 ** 53 or abs(ratio - steps) > 1e-9 * steps:
        raise DomainError(f"dt={dt} is not T_FF={s.T_FF} over a whole step count "
                          f"in [2, 2**53]")
    return steps
