"""Causal signal conditioning for raw inductance readings.

Butterworth low-pass design (bilinear transform with frequency
pre-warping, realized as cascaded second-order sections) plus its
streaming application (``run``): a call advances one stream's delay
line through a sequence of samples, one section at a time over all of
them, and a stream cut into calls gives the same floats as one call.
A spec holds only the order and the cutoff; the sample rate is the
stream's, given at design.

The design and the steady-state priming use numpy only.  They repeat
SciPy's ``signal.butter(..., output="sos")`` and ``signal.sosfilt_zi``
operation for operation, so their results equal SciPy's bit for bit
(the tests check this); importing SciPy's signal package would cost
more than a second of start-up on every command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidFilterSpecError",
    "FilterSpec",
    "FilterState",
    "design",
    "prime",
    "run",
    "is_stable",
]


class InvalidFilterSpecError(ValueError):
    """Filter specification violates its invariants (e.g. cutoff >= Nyquist)."""


#: Highest filter order: the cascade runs section by section in Python
#: over every sample, and nothing here needs a steeper roll-off.
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
    delay line for an independent stream.  The sections and the delay
    line are kept in Python floats, which ``run`` reads and advances
    without numpy scalar overhead; ``sos`` reads the sections as a fresh
    (sections, 6) array, and ``zi`` reads the delay line as a fresh
    (sections, 2) array and sets it from one.
    """

    def __init__(self, sos: np.ndarray):
        self._sections = tuple(map(tuple, np.array(sos, dtype=float).tolist()))
        self._z = [[0.0, 0.0] for _ in self._sections]

    @property
    def sos(self) -> np.ndarray:
        return np.array(self._sections, dtype=float)

    @property
    def zi(self) -> np.ndarray:
        return np.array(self._z, dtype=float)

    @zi.setter
    def zi(self, value) -> None:
        self._z = np.asarray(value, dtype=float).reshape(len(self._sections), 2).tolist()

    def copy(self) -> "FilterState":
        st = object.__new__(FilterState)
        st._sections = self._sections
        st._z = [z[:] for z in self._z]
        return st


def design(spec: FilterSpec, rate_hz: float) -> FilterState:
    """Design the discrete Butterworth low-pass for ``spec`` on a stream
    sampled at ``rate_hz``; the cutoff must lie below the Nyquist
    frequency.

    Uses the bilinear transform with cutoff pre-warping; the cascade has
    unit DC gain and the half-power point at the cutoff.  The result is
    verified stable (all section poles strictly inside the unit circle).
    """
    if not spec.cutoff_hz < rate_hz / 2.0:
        raise InvalidFilterSpecError(f"cutoff {spec.cutoff_hz:g} Hz must lie below "
                                     f"Nyquist ({rate_hz / 2.0:g} Hz)")
    state = FilterState(_butter_sos(spec.order, spec.cutoff_hz, rate_hz))
    if not is_stable(state):
        raise InvalidFilterSpecError(
            f"designed filter unstable for {spec} at {rate_hz:g} Hz")
    return state


def _butter_sos(order: int, cutoff_hz: float, rate_hz: float) -> np.ndarray:
    """Second-order sections of the digital Butterworth low-pass.

    The analog prototype's poles are pre-warped to the cutoff and mapped
    by the bilinear transform at fs = 2, which puts every zero at -1.
    Poles and zeros are paired as SciPy's "nearest" pairing pairs them
    (an odd order adds a pole and a zero at 0 to make a second-order
    section): the pole nearest the unit circle, with its conjugate or
    the worst remaining real pole, takes the two zeros nearest it and
    goes last.  The gain goes into the first section's numerator.
    """
    wn = np.float64(cutoff_hz) / (float(rate_hz) / 2)
    wo = float(4.0 * np.tan(np.pi * wn / 2.0))
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    s = wo * -np.exp(1j * np.pi * m / (2 * order))
    gain = wo**order * np.real(1.0 / np.prod(4.0 - s))
    poles = (4.0 + s) / (4.0 - s)
    half = order // 2
    # one pole per conjugate pair, averaged, by real part then |imag|; then the real poles
    pairs = (poles[:half] + poles[::-1][:half].conj()) / 2
    p = pairs[np.lexsort((abs(pairs.imag), pairs.real))]
    if order % 2:
        reals = np.sort([poles[half].real, 0.0])
        p = np.concatenate((p, reals)) if half else reals
    z = np.array([-1.0] * order + [0.0] * (order % 2))

    def worst(q):
        return np.argmin(np.abs(1 - np.abs(q)))

    def pop(arr, i):
        return arr[i], np.delete(arr, i)

    sos = np.zeros(((order + 1) // 2, 6))
    for si in range(sos.shape[0] - 1, -1, -1):
        p1, p = pop(p, worst(p))
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            p2, p = pop(p, real[worst(p[real])])
        else:
            p2 = p1.conj()
        z1, z = pop(z, np.argmin(np.abs(z - p1)))
        z2, z = pop(z, np.argmin(np.abs(z - p1)))
        sos[si] = np.concatenate((np.poly([z1, z2]), np.poly([p1, p2])))
    sos[0, :3] *= gain
    return sos


def prime(state: FilterState, value: float) -> FilterState:
    """Load the delay line with the steady state for a constant input.

    Avoids the startup transient when a stream begins near ``value``.
    Each section's state solves ``zi = A zi + B`` for its state-space
    form (A the transposed companion matrix of its denominator, whose
    leading coefficient is 1), scaled by the DC gain of the sections
    before it.
    """
    sos = state.sos
    zi = np.empty_like(state.zi)
    scale = 1.0
    for s, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        companion_t = np.array([[-a[1], 1.0], [-a[2], 0.0]])
        zi[s] = scale * np.linalg.solve(np.eye(2) - companion_t, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    state.zi = zi * float(value)
    return state


def run(state: FilterState, samples) -> list:
    """Advance ``state``'s delay line through ``samples`` and return the
    filtered values, a list of floats.

    The cascade runs one section at a time over all the samples, each
    section by its transposed direct form II recurrence: the operations
    of a sample-at-a-time step, in its order, so the outputs and the
    delay line are the same floats however a stream is cut into calls.
    """
    ys = map(float, samples)
    for (b0, b1, b2, _, a1, a2), z in zip(state._sections, state._z):
        z0, z1 = z
        out = []
        add = out.append
        for x in ys:
            y = b0 * x + z0
            z0 = b1 * x - a1 * y + z1
            z1 = b2 * x - a2 * y
            add(y)
        z[0], z[1] = z0, z1
        ys = out
    return ys


def is_stable(state: FilterState) -> bool:
    """True when every feedback polynomial has its roots strictly inside the unit circle."""
    for a in state.sos[:, 3:]:
        roots = np.roots(a)
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            return False
    return True
