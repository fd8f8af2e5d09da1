"""Causal signal conditioning for raw inductance readings.

Butterworth low-pass design (bilinear transform with frequency
pre-warping, realized as cascaded second-order sections) plus a
streaming one-sample-at-a-time application.  A spec holds only the
order and the cutoff; the sample rate is the stream's, given at design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as _sps

__all__ = [
    "InvalidFilterSpecError",
    "FilterSpec",
    "FilterState",
    "check_cutoff",
    "design",
    "prime",
    "step",
    "is_stable",
]


class InvalidFilterSpecError(ValueError):
    """Filter specification violates its invariants (e.g. cutoff >= Nyquist)."""


#: Highest filter order: the cascade is stepped section by section in
#: Python once per sample, and nothing here needs a steeper roll-off.
MAX_ORDER = 20


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass design request: order and cutoff frequency (Hz)."""

    order: int = 3
    cutoff_hz: float = 10.0

    def __post_init__(self):
        if int(self.order) != self.order or not 1 <= self.order <= MAX_ORDER:
            raise InvalidFilterSpecError(
                f"order must be an integer in [1, {MAX_ORDER}], got {self.order}")
        if not self.cutoff_hz > 0.0:
            raise InvalidFilterSpecError(f"cutoff must be positive, got {self.cutoff_hz} Hz")


class FilterState:
    """Cascaded second-order sections with their delay lines.

    Single-owner mutable: one state per stream.  ``copy()`` forks the
    delay line for an independent stream.
    """

    def __init__(self, sos: np.ndarray):
        self.sos = np.array(sos, dtype=float)
        self.zi = np.zeros((self.sos.shape[0], 2))

    def copy(self) -> "FilterState":
        st = FilterState(self.sos)
        st.zi = self.zi.copy()
        return st


def check_cutoff(spec: FilterSpec, rate_hz: float) -> None:
    """Raise InvalidFilterSpecError unless the cutoff of ``spec`` lies
    below the Nyquist frequency of a stream sampled at ``rate_hz``."""
    if not spec.cutoff_hz < rate_hz / 2.0:
        raise InvalidFilterSpecError(f"cutoff {spec.cutoff_hz:g} Hz must lie below "
                                     f"Nyquist ({rate_hz / 2.0:g} Hz)")


def design(spec: FilterSpec, rate_hz: float) -> FilterState:
    """Design the discrete Butterworth low-pass for ``spec`` on a stream
    sampled at ``rate_hz`` (see ``check_cutoff``).

    Uses the bilinear transform with cutoff pre-warping; the cascade has
    unit DC gain and the half-power point at the cutoff.  The result is
    verified stable (all section poles strictly inside the unit circle).
    """
    check_cutoff(spec, rate_hz)
    sos = _sps.butter(spec.order, spec.cutoff_hz, btype="low",
                      fs=rate_hz, output="sos")
    state = FilterState(sos)
    if not is_stable(state):
        raise InvalidFilterSpecError(
            f"designed filter unstable for {spec} at {rate_hz:g} Hz")
    return state


def prime(state: FilterState, value: float) -> FilterState:
    """Load the delay line with the steady state for a constant input.

    Avoids the startup transient when a stream begins near ``value``.
    """
    state.zi = _sps.sosfilt_zi(state.sos) * float(value)
    return state


def step(state: FilterState, sample: float) -> float:
    """Advance the filter by one sample and return the filtered value."""
    y = float(sample)
    sos = state.sos
    zi = state.zi
    for s in range(sos.shape[0]):
        b0, b1, b2, _, a1, a2 = sos[s]
        out = b0 * y + zi[s, 0]
        zi[s, 0] = b1 * y - a1 * out + zi[s, 1]
        zi[s, 1] = b2 * y - a2 * out
        y = out
    return y


def is_stable(state: FilterState) -> bool:
    """True when every feedback polynomial has its roots strictly inside the unit circle."""
    for s in range(state.sos.shape[0]):
        roots = np.roots(state.sos[s, 3:])
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            return False
    return True
