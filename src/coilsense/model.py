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
    "ModelCoeffs",
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


@dataclass(frozen=True)
class ModelCoeffs:
    """The five pressure-evaluated coefficients of the inductance map."""

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    lambda5: float

    def as_tuple(self) -> tuple:
        return (self.lambda1, self.lambda2, self.lambda3, self.lambda4, self.lambda5)


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
    p = params.p
    return tuple(p[2 * i] * P + p[2 * i + 1] for i in range(5))


def _inductance(F, l1, l2, l3, l4, l5):
    """The inductance formula on already-evaluated coefficients.

    No checks and no ``np.errstate``: callers supply both.  It stays on
    numpy's ``power`` and ``exp`` for scalars too, whose results differ
    from ``math``'s in the last bit, so scalar and array evaluations
    agree exactly.  The formula itself is ``_inductance_of_powers``:
    ``_inductance_at`` calls it with F**l2 and F**l4 from one
    two-exponent ``np.power`` call, as a scalar ``np.power`` call is
    mostly overhead.  ``np.power`` gives each element of an array the
    bits it gives that element alone, so all these paths agree bit for
    bit (the tests check this).  Fusing here instead would build an
    exponent array on every call, which costs more than it saves.  The
    observer's golden pass needs only the order of two costs, so it
    evaluates the formula on ``math``'s ``pow`` and ``exp`` with an
    error bound and comes back to ``_inductance_at`` for near-ties
    (``observer._certified_golden``).
    """
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
    """The inductance formula at one float force, with F**l2 and F**l4
    from one two-exponent ``np.power`` call: the plant's steps and the
    observer's exact costs.  Callers set ``np.errstate``."""
    F_l2, F_l4 = np.power(F, np.array((l2, l4))).tolist()
    return float(_inductance_of_powers(F_l2, F_l4, l1, l3, l5))


def _d_inductance_dF(F, l1, l2, l3, l4):
    """dL/dF on already-evaluated coefficients; see ``_inductance``."""
    return _d_inductance_dF_of_powers(np.power(F, l2 - 1.0), np.power(F, l4), l1, l2, l3, l4)


def _d_inductance_dF_of_powers(F_l2m1, F_l4, l1, l2, l3, l4):
    """dL/dF, given F**(l2 - 1) and F**l4."""
    return l1 * F_l2m1 * np.exp(l3 * F_l4) * (l2 + l3 * l4 * F_l4)


#: Veltkamp's splitting constant for doubles, 2**27 + 1.
_SPLITTER = 134217729.0
#: ``_fma_chain`` takes a product between these two magnitudes by
#: Dekker's two-product: below ``_FMA_TINY`` its rounding error may not
#: be representable, and far below ``_FMA_HUGE`` the halves' products
#: cannot overflow.
_FMA_HUGE = 2.0 ** 995
_FMA_TINY = 2.0 ** -960


def _split(a: float) -> tuple:
    """``(a, hi, lo)``: Veltkamp's split of ``a`` into two halves of at
    most 26 significant bits each, whose sum is ``a`` exactly."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return a, hi, a - hi


def _fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` with one rounding, as a fused multiply-add gives it
    (Python 3.11 has no ``math.fma``); see ``_fma_chain``."""
    return _fma_chain(c, (_split(a),), (b,))


def _fma_chain(c: float, a_splits, bs) -> float:
    """``c = a * b + c`` with one rounding for each factor pair in turn:
    from ``c = 0.0`` it is the dot product of a BLAS kernel that fuses
    its multiply-adds.  ``a_splits`` holds each ``_split(a)``.

    The product is Dekker's exact two-product ``p + e`` (Numer. Math. 18,
    1971) and ``math.fsum`` rounds ``p + e + c`` correctly; when ``e`` is
    0 the product is exact and a plain sum is the same.  A split that
    overflows makes ``e`` NaN.  Then, and for a product outside the
    two-product's range or a sum that overflows ``fsum``, the exact sum
    is taken with fractions.  Non-finite inputs give what IEEE
    arithmetic gives.
    """
    for (a, a_hi, a_lo), b in zip(a_splits, bs):
        p = a * b
        if _FMA_TINY < abs(p) < _FMA_HUGE:
            t = _SPLITTER * b
            b_hi = t - (t - b)
            b_lo = b - b_hi
            e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
            if e == 0.0:
                c = p + c
                continue
            if e == e:
                try:
                    c = math.fsum((p, e, c))
                    continue
                except OverflowError:
                    pass
        c = _fma_exact(a, b, c)
    return c


def _fma_exact(a: float, b: float, c: float) -> float:
    """``_fma`` by exact rational arithmetic, for any inputs."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c
    if a == 0.0 or b == 0.0:
        return a * b + c  # an exact signed zero, then IEEE addition
    # imported here: with ``decimal`` it adds about 3.5 ms to start-up
    from fractions import Fraction

    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        return 0.0
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def eval_coeffs(params: InductanceParams, P: float, validate: bool = True) -> ModelCoeffs:
    """Evaluate the five pressure-dependent coefficients at pressure P.

    Raises EnvelopeError when the resulting exponent coefficients
    (lambda2, lambda4) are not strictly positive, which would make the
    map undefined at F = 0; ``validate=False`` returns the raw
    arithmetic instead.
    """
    l1, l2, l3, l4, l5 = _coeffs(params, float(P))
    if validate:
        if not all(math.isfinite(v) for v in (l1, l2, l3, l4, l5)):
            raise EnvelopeError(f"non-finite coefficients at P={P}")
        if l2 <= 0 or l4 <= 0:
            raise EnvelopeError(f"lambda2={l2}, lambda4={l4} must be > 0 at P={P}")
    return ModelCoeffs(l1, l2, l3, l4, l5)


def _coeffs_at(params: InductanceParams, P, validate: bool) -> tuple:
    """The coefficients for ``eval_inductance`` and ``d_inductance_dF``:
    one validated float evaluation for a scalar P, unchecked arrays for
    an array P."""
    if np.ndim(P) == 0:
        return eval_coeffs(params, P, validate).as_tuple()
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

    Defined only for l3 < 0 (rising-then-falling curve); raises
    DomainError otherwise.
    """
    co = eval_coeffs(params, P)
    if co.lambda3 >= 0:
        raise DomainError(f"no interior peak: lambda3={co.lambda3} >= 0 at P={P}")
    return (co.lambda2 / (-co.lambda3 * co.lambda4)) ** (1.0 / co.lambda4)


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


def load_dynamic_params(path: str) -> DynamicParams:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return DynamicParams(k=float(doc["k"]), x0=float(doc["x0"]), c=float(doc["c"]))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc} in dynamic parameter file") from None


def save_inductance_params(params: InductanceParams, path: str) -> None:
    _atomic_write_text(path, json.dumps({"p": list(params.p)}, indent=2) + "\n")


def load_inductance_params(path: str) -> InductanceParams:
    with open(path) as fh:
        doc = json.load(fh)
    if "p" not in doc:
        raise ValueError(f"{path}: missing field 'p' in inductance parameter file")
    return InductanceParams(p=tuple(doc["p"]))
