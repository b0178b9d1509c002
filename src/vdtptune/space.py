"""Search space for VDTP tuning: three real-valued protocol parameters.

A candidate configuration is (chunk_size, total_attempts, retransmission_time).
The search itself is purely continuous; integer quantities are produced only
at the simulator boundary via :func:`quantize_for_protocol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VdtpConfig",
    "Bounds",
    "DEFAULT_BOUNDS",
    "quantize_for_protocol",
    "bound_violations",
]


@dataclass(frozen=True)
class VdtpConfig:
    """One candidate solution. All three fields are reals.

    chunk_size is in bytes, total_attempts is a count (rounded to an integer
    by the simulator), retransmission_time is the request timeout in seconds.
    """

    chunk_size: float
    total_attempts: float
    retransmission_time: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.chunk_size, self.total_attempts, self.retransmission_time],
            dtype=float,
        )

    @classmethod
    def from_array(cls, x) -> "VdtpConfig":
        if len(x) != 3:
            raise ValueError(f"expected 3 coordinates, got {len(x)}")
        return cls(float(x[0]), float(x[1]), float(x[2]))


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned box bounds. Default is the VDTP parameter box."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi):
            raise ValueError("lower and upper must have the same length")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not a < b:
                raise ValueError(f"lower[{i}]={a} must be < upper[{i}]={b}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # from_unit's operands, made once: the lower corner and the edge
        # lengths, as (1, dim) rows because numpy maps a one-row batch
        # faster with operands of its own shape than by broadcasting
        lower = np.asarray([lo], dtype=float)
        span = np.asarray([hi], dtype=float) - lower
        lower.flags.writeable = span.flags.writeable = False
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "_span", span)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def lower_array(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    def upper_array(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)

    def from_unit(self, u) -> np.ndarray:
        """Map a point, or a (k, dim) batch of points, in the unit cube to
        physical coordinates: lower + u * (upper - lower)."""
        u = np.asarray(u, dtype=float)
        return (self._lower + u * self._span).reshape(u.shape)


#: chunk_size 128..524288 bytes, total_attempts 1..250, retransmission_time 1..10 s
DEFAULT_BOUNDS = Bounds(lower=(128.0, 1.0, 1.0), upper=(524288.0, 250.0, 10.0))


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def quantize_for_protocol(config: VdtpConfig):
    """Integer view consumed by the simulator: (chunk_bytes, attempts, timeout_s).

    chunk and attempts are rounded half-up; the timeout stays real.
    """
    chunk_bytes = max(128, _round_half_up(config.chunk_size))
    attempts = max(1, _round_half_up(config.total_attempts))
    return chunk_bytes, attempts, float(config.retransmission_time)


def bound_violations(config: VdtpConfig, bounds: Bounds = DEFAULT_BOUNDS):
    """List of human-readable bound violations, each naming its axis by the
    simulate flag that sets it; empty when in bounds."""
    x = config.as_array()
    out = []
    for i, name in enumerate(("--chunk", "--attempts", "--timeout")):
        lo, hi = bounds.lower[i], bounds.upper[i]
        if not lo <= x[i] <= hi:
            out.append(f"{name}={x[i]:g} outside [{lo:g}, {hi:g}]")
    return out
