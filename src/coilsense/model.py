"""Control-oriented actuator model and the inductance self-sensing map.

Units are fixed across the package: pressure in MPa, inductance in uH,
force in N, length in m.  The force model is affine in length and
pressure.  The inductance map is a peaked curve in force whose five
coefficients are linear in pressure; with a negative exponential
coefficient the curve rises and then falls, so a single inductance
reading can have two force preimages (the ambiguity the observer
resolves).

All functions here are pure; parameter objects are immutable and safe
to share between threads.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "EnvelopeError",
    "DegenerateModelError",
    "DynamicParams",
    "InductanceParams",
    "OperatingEnvelope",
    "eval_dynamic_force",
    "invert_dynamic_length",
    "eval_coeffs",
    "eval_inductance",
    "d_inductance_dF",
    "peak_force",
    "load_dynamic_params",
    "save_dynamic_params",
    "load_inductance_params",
    "save_inductance_params",
]

# Stiffness magnitudes below this cannot be inverted meaningfully.
STIFFNESS_EPS = 1e-9


class DomainError(ValueError):
    """Argument outside the mathematical domain of the map (e.g. F < 0)."""


class EnvelopeError(ValueError):
    """Operating point or evaluated coefficients outside the valid envelope."""


class DegenerateModelError(ValueError):
    """Model parameters too close to singular to invert."""


@dataclass(frozen=True)
class DynamicParams:
    """Affine force model F = k*(x - x0) + c*P.

    k : stiffness, N/m
    x0 : unloaded (slack) length, m
    c : pressure coefficient, N/MPa
    """

    k: float
    x0: float
    c: float

    def __post_init__(self):
        vals = (self.k, self.x0, self.c)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"dynamic parameters must be finite, got {vals}")
        if self.k <= 0 or self.x0 <= 0 or self.c <= 0:
            raise ValueError(f"k, x0, c must all be positive, got {vals}")


@dataclass(frozen=True)
class InductanceParams:
    """Ten coefficients of the pressure-linear inductance map.

    Coefficient i of the map (i = 1..5) is ``p[2i-2]*P + p[2i-1]``, i.e.
    odd entries are pressure slopes and even entries are intercepts.
    """

    p: tuple

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        if len(p) != 10:
            raise ValueError(f"expected 10 coefficients, got {len(p)}")
        if not all(math.isfinite(v) for v in p):
            raise ValueError("all coefficients must be finite")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class OperatingEnvelope:
    """Physically feasible operating box for pressure, force, length, inductance."""

    P_min: float
    P_max: float
    F_min: float
    F_max: float
    x_min: float
    x_max: float
    L_min: float
    L_max: float

    def __post_init__(self):
        pairs = (
            ("P", self.P_min, self.P_max),
            ("F", self.F_min, self.F_max),
            ("x", self.x_min, self.x_max),
            ("L", self.L_min, self.L_max),
        )
        for name, lo, hi in pairs:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"envelope requires {name}_min < {name}_max, got [{lo}, {hi}]")
        if self.F_min < 0:
            raise ValueError("F_min must be >= 0")
        if self.P_min < 0:
            raise ValueError("P_min must be >= 0")

    @property
    def F_span(self) -> float:
        return self.F_max - self.F_min

    def check_P(self, P: float) -> None:
        if not (self.P_min <= P <= self.P_max):
            raise EnvelopeError(f"pressure {P} MPa outside [{self.P_min}, {self.P_max}]")


def eval_dynamic_force(params: DynamicParams, x, P):
    """Force of the affine model, F = k*(x - x0) + c*P.

    Accepts scalars or arrays (broadcast).  Total function: no clamping,
    no envelope checks.
    """
    return params.k * (x - params.x0) + params.c * P


def invert_dynamic_length(params: DynamicParams, F, P):
    """Length that produces force F at pressure P: x = x0 + (F - c*P)/k."""
    if abs(params.k) < STIFFNESS_EPS:
        raise DegenerateModelError(f"stiffness {params.k} below {STIFFNESS_EPS}, cannot invert")
    return params.x0 + (F - params.c * P) / params.k


def _coeffs(params: InductanceParams, P):
    """The five coefficients at P: floats for a float P, arrays
    broadcast against an array P (the same IEEE products and sums)."""
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 = params.p
    return p0 * P + p1, p2 * P + p3, p4 * P + p5, p6 * P + p7, p8 * P + p9


def _pow(x: float, y: float) -> float:
    """``math.pow`` for x >= 0, inf where numpy's ``power`` gives it and
    ``math`` raises: at x = 0 with y < 0, and on overflow."""
    try:
        return math.pow(x, y)
    except (ValueError, OverflowError):
        return math.inf


def _exp(x: float) -> float:
    """``math.exp``, inf on overflow as numpy's ``exp`` gives it."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _inductance(F, l1, l2, l3, l4, l5):
    """The inductance formula on already-evaluated coefficients, on
    numpy's ``power`` and ``exp``, which can differ from ``math``'s
    (``_inductance_at``) in the last bit.  No checks and no
    ``np.errstate``: callers supply both."""
    return _inductance_of_powers(np.power(F, l2), np.power(F, l4), l1, l3, l5)


def _inductance_of_powers(F_l2, F_l4, l1, l3, l5):
    """The inductance formula, l1 * F**l2 * exp(l3 * F**l4) + l5, given
    F**l2 and F**l4.

    It runs a step at a time, in the formula's order, and lets go of each
    array once it is used, so on arrays no more temporaries are alive at
    once than in the one-line form.  With two more alive, fitting 25,200
    samples took two to four times the minor page faults and about 8%
    longer.
    """
    F_l2 = l1 * F_l2
    F_l4 = l3 * F_l4
    F_l4 = np.exp(F_l4)
    F_l2 = F_l2 * F_l4
    del F_l4
    return F_l2 + l5


def _inductance_at(F: float, l1, l2, l3, l4, l5) -> float:
    """The inductance formula at one float force on ``math.pow`` and
    ``math.exp``: the one copy the plant (a step, and each sample of a
    kinematic run) and the observer's inversion cost evaluate.  Where a
    ``math`` call raises, ``_pow`` and ``_exp`` give numpy's inf."""
    try:
        return l1 * math.pow(F, l2) * math.exp(l3 * math.pow(F, l4)) + l5
    except (ValueError, OverflowError):
        return l1 * _pow(F, l2) * _exp(l3 * _pow(F, l4)) + l5


def _d_inductance_dF(F, l1, l2, l3, l4):
    """dL/dF on already-evaluated coefficients; see ``_inductance``."""
    F_l4 = np.power(F, l4)
    return l1 * np.power(F, l2 - 1.0) * np.exp(l3 * F_l4) * (l2 + l3 * l4 * F_l4)


def eval_coeffs(params: InductanceParams, P: float, validate: bool = True) -> tuple:
    """The five pressure-dependent coefficients at pressure P, as the
    float tuple ``(lambda1, ..., lambda5)``.

    Raises EnvelopeError when the resulting exponent coefficients
    (lambda2, lambda4) are not strictly positive, which would make the
    map undefined at F = 0; ``validate=False`` returns the raw
    arithmetic instead.
    """
    l1, l2, l3, l4, l5 = _coeffs(params, float(P))
    if validate:
        if not (math.isfinite(l1) and math.isfinite(l2) and math.isfinite(l3)
                and math.isfinite(l4) and math.isfinite(l5)):
            raise EnvelopeError(f"non-finite coefficients at P={P}")
        if l2 <= 0 or l4 <= 0:
            raise EnvelopeError(f"lambda2={l2}, lambda4={l4} must be > 0 at P={P}")
    return l1, l2, l3, l4, l5


def _coeffs_at(params: InductanceParams, P, validate: bool) -> tuple:
    """The coefficients for ``eval_inductance`` and ``d_inductance_dF``:
    one validated float evaluation for a scalar P, unchecked arrays for
    an array P."""
    if np.ndim(P) == 0:
        return eval_coeffs(params, P, validate)
    return _coeffs(params, np.asarray(P, dtype=float))


def eval_inductance(params: InductanceParams, F, P, validate: bool = True):
    """Inductance (uH) at force F (N) and pressure P (MPa).

    L = l1 * F**l2 * exp(l3 * F**l4) + l5 with the coefficients from
    ``eval_coeffs``.  F**l is the continuous extension with value 0 at
    F = 0 (valid because l2, l4 > 0 inside the envelope).  Scalars or
    arrays; arrays broadcast.

    With ``validate=False`` no domain or envelope checks run and
    non-finite values propagate silently (used inside fitting loops).
    """
    F_arr = np.asarray(F, dtype=float)
    if validate and (F_arr < 0).any():
        raise DomainError("force must be >= 0 for the inductance map")
    coeffs = _coeffs_at(params, P, validate)
    with np.errstate(all="ignore"):
        L = _inductance(F_arr, *coeffs)
    return float(L) if L.ndim == 0 else L


def d_inductance_dF(params: InductanceParams, F, P, validate: bool = True):
    """Analytic sensitivity dL/dF of the inductance map.

    dL/dF = l1 * F**(l2-1) * exp(l3 * F**l4) * (l2 + l3*l4*F**l4).
    Requires F > 0 (the power term may be singular at 0).
    """
    F_arr = np.asarray(F, dtype=float)
    if validate and (F_arr <= 0).any():
        raise DomainError("sensitivity requires F > 0")
    l1, l2, l3, l4, _ = _coeffs_at(params, P, validate)
    with np.errstate(all="ignore"):
        g = _d_inductance_dF(F_arr, l1, l2, l3, l4)
    return float(g) if g.ndim == 0 else g


def peak_force(params: InductanceParams, P: float) -> float:
    """Force at which dL/dF vanishes, (l2 / (-l3*l4))**(1/l4).

    Defined only for l3 < 0 (rising-then-falling curve) whose peak is a
    float; raises DomainError otherwise, also where the power overflows
    or -l3*l4 underflows to 0, so that the peak lies beyond the floats.
    """
    _, l2, l3, l4, _ = eval_coeffs(params, P)
    if l3 >= 0:
        raise DomainError(f"no interior peak: lambda3={l3} >= 0 at P={P}")
    try:
        return _peak_at(l2, l3, l4)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"no finite peak: lambda2={l2}, lambda3={l3}, lambda4={l4} "
                          f"put it beyond the floats at P={P}") from None


def _peak_at(l2: float, l3: float, l4: float) -> float:
    """The peak force (l2 / (-l3*l4))**(1/l4) on already-evaluated
    coefficients with l2, l4 > 0 and l3 < 0: the one copy ``peak_force``
    and the observer's re-seed rule evaluate.  Float ``**``, so it raises
    OverflowError where the power overflows, and ZeroDivisionError where
    -l3*l4 underflows to 0."""
    return (l2 / (-l3 * l4)) ** (1.0 / l4)


# ---------------------------------------------------------------------------
# Parameter files (JSON, fixed field names)

def _atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dynamic_params(params: DynamicParams, path: str) -> None:
    _atomic_write_text(path, json.dumps({"k": params.k, "x0": params.x0, "c": params.c}, indent=2) + "\n")


def _load_params(path: str, kind: str, build):
    """``build`` on the JSON document in ``path``; any problem with the
    document (not JSON, a missing or bad field) is a ValueError naming it."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc} in {kind} parameter file") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad {kind} parameter file: {exc}") from None


def load_dynamic_params(path: str) -> DynamicParams:
    return _load_params(path, "dynamic", lambda doc: DynamicParams(
        k=float(doc["k"]), x0=float(doc["x0"]), c=float(doc["c"])))


def save_inductance_params(params: InductanceParams, path: str) -> None:
    _atomic_write_text(path, json.dumps({"p": list(params.p)}, indent=2) + "\n")


def load_inductance_params(path: str) -> InductanceParams:
    return _load_params(path, "inductance", lambda doc: InductanceParams(p=tuple(doc["p"])))
