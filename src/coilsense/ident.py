"""Parameter identification from test-bench datasets.

Two fitting paths: ordinary least squares for the affine force model,
and a bounded trust-region nonlinear least-squares solver (dogleg step
clipped to the trust radius, gain-ratio radius adaptation, iterates
reflected back into the bound box) for the ten-coefficient inductance
map.  The inductance fit is multi-started because the map is non-convex
in its coefficients.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .model import DynamicParams, InductanceParams

__all__ = [
    "Dataset",
    "FitReport",
    "GoodnessMetrics",
    "DataFormatError",
    "MissingColumnError",
    "RankDeficientError",
    "InvalidBoundsError",
    "ConstantSeriesError",
    "read_csv",
    "write_csv",
    "write_columns",
    "goodness",
    "fit_dynamic",
    "fit_inductance",
    "default_inductance_bounds",
    "heuristic_inductance_init",
]


class DataFormatError(ValueError):
    """Malformed dataset file or dataset contents."""


class MissingColumnError(DataFormatError):
    """A required column is absent from the dataset."""

    def __init__(self, column: str, context: str = ""):
        self.column = column
        msg = f"missing required column '{column}'"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class RankDeficientError(ValueError):
    """The regression design matrix is singular."""


class InvalidBoundsError(ValueError):
    """Initial point violates the bound box, or the box is malformed."""


class ConstantSeriesError(ValueError):
    """Observed series is constant; R^2 and NRMSE are undefined."""


class Dataset:
    """Ordered samples stored as column arrays (time s, pressure MPa,
    inductance uH, optional force N and length m), plus free-form meta tags.

    Timestamps must be strictly increasing, pressures non-negative, and
    the ``t``, ``P``, ``L``, ``F`` and ``x`` channels finite.
    ``F`` and ``x`` are None when the channel is absent.  ``extra``
    maps the names of further columns (such as the ``F_hat`` and
    ``x_hat`` estimates that ``coilsense estimate`` appends) to arrays
    of the same length; it is empty when there are none.
    """

    def __init__(self, t, P, L, F=None, x=None, meta: dict | None = None,
                 extra: dict | None = None):
        self.t = np.asarray(t, dtype=float)
        self.P = np.asarray(P, dtype=float)
        self.L = np.asarray(L, dtype=float)
        self.F = None if F is None else np.asarray(F, dtype=float)
        self.x = None if x is None else np.asarray(x, dtype=float)
        self.meta = dict(meta) if meta else {}
        self.extra = {name: np.asarray(col, dtype=float) for name, col in (extra or {}).items()}
        n = self.t.size
        for name, col in (("P", self.P), ("L", self.L), ("F", self.F), ("x", self.x),
                          *self.extra.items()):
            if col is not None and col.size != n:
                raise DataFormatError(f"column '{name}' has {col.size} rows, expected {n}")
        for name, col in (("t", self.t), ("P", self.P), ("L", self.L), ("F", self.F),
                          ("x", self.x)):
            if col is not None and not np.all(np.isfinite(col)):
                raise DataFormatError(f"column '{name}' has non-finite values")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise DataFormatError("timestamps must be strictly increasing")
        if n and np.any(self.P < 0):
            raise DataFormatError("pressures must be non-negative")

    def __len__(self) -> int:
        return int(self.t.size)


_CSV_COLUMNS = ("t", "P", "L", "F", "x")


def _csv_rows(path: str, fh):
    """The rows of CSV text ``fh``; undecodable or unsplittable text is a
    DataFormatError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable CSV near line {reader.line_num}: {exc}") from None


def read_csv(path: str) -> Dataset:
    """Read a dataset CSV with header ``t,P,L[,F][,x][,extra...]`` (UTF-8,
    comma, dot decimal).

    Columns are matched by name.  Every column other than the standard
    five is parsed like them and returned in ``Dataset.extra``, so the
    file ``write_csv`` writes with ``extra`` columns reads back whole.
    Empty and duplicate column names are rejected, and so is text that
    is not UTF-8 or that the CSV reader cannot split.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "" in header:
            raise DataFormatError(f"{path}: empty column name in header")
        dups = sorted({h for h in header if header.count(h) > 1})
        if dups:
            raise DataFormatError(f"{path}: duplicate column(s) {dups}")
        for col in ("t", "P", "L"):
            if col not in header:
                raise MissingColumnError(col, context=path)
        cols: dict = {h: [] for h in header}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            for h, cell in zip(header, row):
                try:
                    cols[h].append(float(cell))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {lineno}: cannot parse '{cell}' in column '{h}'"
                    ) from None
    if not cols["t"]:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(
        t=cols["t"], P=cols["P"], L=cols["L"],
        F=cols.get("F"), x=cols.get("x"),
        meta={"source": path},
        extra={h: col for h, col in cols.items() if h not in _CSV_COLUMNS},
    )


def write_csv(ds: Dataset, path: str, extra: dict | None = None) -> None:
    """Write a dataset CSV atomically.

    The dataset's own ``extra`` columns, then those of ``extra`` (which
    win on a shared name), follow the standard ones.  An extra column
    may not reuse a standard name, since ``read_csv`` would reject the
    duplicate, and its name must read back unchanged (see
    ``_check_column_name``).  Nothing is written when a name fails.
    """
    extras = {**ds.extra, **(extra or {})}
    clash = [name for name in extras if name in _CSV_COLUMNS]
    if clash:
        raise DataFormatError(f"extra column(s) {clash} reuse a standard column name")
    for name in extras:
        _check_column_name(name)
    columns = {"t": ds.t, "P": ds.P, "L": ds.L}
    if ds.F is not None:
        columns["F"] = ds.F
    if ds.x is not None:
        columns["x"] = ds.x
    write_columns(path, {**columns, **extras})


#: Characters a header name may not hold: the separator, the quote and
#: the line ends would split or quote the header, and the CSV reader
#: refuses NUL.
_HEADER_UNSAFE = frozenset(',"\r\n\x00')


def _check_column_name(name) -> None:
    """Raise DataFormatError unless ``read_csv`` returns the header name
    ``name`` unchanged: text, encodable as UTF-8, not empty, with none of
    ``_HEADER_UNSAFE`` and no whitespace at either end (the reader
    strips it).  Names are written unquoted, so this is the whole rule."""
    ok = (isinstance(name, str) and name != "" and name == name.strip()
          and _HEADER_UNSAFE.isdisjoint(name))
    if ok:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            ok = False
    if not ok:
        raise DataFormatError(f"extra column name {name!r} would not read back unchanged")


def write_columns(path: str, columns: dict) -> None:
    """Write equal-length named columns as a CSV atomically: a header
    line, then one comma-joined row per sample, every value as ``.12g``."""
    arrays = [np.asarray(col, dtype=float) for col in columns.values()]
    lines = [",".join(columns)]
    for i in range(arrays[0].size):
        lines.append(",".join(format(float(a[i]), ".12g") for a in arrays))
    model._atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Goodness of fit

@dataclass(frozen=True)
class GoodnessMetrics:
    """rmse/mae in target units, r2 dimensionless, nrmse in percent of observed range."""

    rmse: float
    mae: float
    r2: float
    nrmse: float

    def as_dict(self) -> dict:
        return {"rmse": self.rmse, "mae": self.mae, "r2": self.r2, "nrmse": self.nrmse}


def goodness(predicted, observed) -> GoodnessMetrics:
    """Error metrics between a prediction series and an observed series.

    nrmse = 100 * rmse / (max(observed) - min(observed)).  Raises
    ConstantSeriesError when the observed range is zero (r2 and nrmse
    undefined).
    """
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {obs.shape}")
    if pred.size < 2:
        raise ValueError("need at least 2 points")
    err = pred - obs
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    rng = float(obs.max() - obs.min())
    if rng == 0.0:
        raise ConstantSeriesError("observed series is constant")
    ss_res = float(np.sum(err ** 2))
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return GoodnessMetrics(rmse=rmse, mae=mae, r2=r2, nrmse=100.0 * rmse / rng)


@dataclass
class FitReport:
    """Outcome of a fitting call.

    ``cost_log`` lists one half-sum-of-squares value per accepted
    iteration (index 0 is the initial cost of the winning start).
    """

    params: object
    rmse: float
    r2: float
    iterations: int
    converged: bool
    cost_log: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        if isinstance(self.params, DynamicParams):
            pdoc = {"k": self.params.k, "x0": self.params.x0, "c": self.params.c}
        elif isinstance(self.params, InductanceParams):
            pdoc = {"p": list(self.params.p)}
        else:
            pdoc = self.params
        return {
            "params": pdoc,
            "rmse": self.rmse,
            "r2": self.r2,
            "iterations": self.iterations,
            "converged": self.converged,
            "cost_log": list(self.cost_log),
            **self.extra,
        }

    def to_json(self, path: str) -> None:
        model._atomic_write_text(path, json.dumps(self.as_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Affine force model: ordinary least squares

def fit_dynamic(data: Dataset) -> FitReport:
    """Fit (k, x0, c) of F = k*(x - x0) + c*P by ordinary least squares.

    Needs force and length channels, at least 3 samples, and at least
    two distinct lengths and pressures; a singular design matrix raises
    RankDeficientError.
    """
    if data.F is None:
        raise MissingColumnError("F", context="fit_dynamic needs a force channel")
    if data.x is None:
        raise MissingColumnError("x", context="fit_dynamic needs a length channel")
    if len(data) < 3:
        raise ValueError(f"need at least 3 samples, got {len(data)}")
    A = np.column_stack([data.x, data.P, np.ones(len(data))])
    if np.linalg.matrix_rank(A) < 3:
        raise RankDeficientError(
            "design matrix is rank deficient (need at least two distinct x and two distinct P)"
        )
    beta, _, _, _ = np.linalg.lstsq(A, data.F, rcond=None)
    k, c, intercept = (float(b) for b in beta)
    params = DynamicParams(k=k, x0=-intercept / k, c=c)
    pred = model.eval_dynamic_force(params, data.x, data.P)
    gm = goodness(pred, data.F)
    cost = 0.5 * float(np.sum((pred - data.F) ** 2))
    return FitReport(params=params, rmse=gm.rmse, r2=gm.r2, iterations=1,
                     converged=True, cost_log=[cost])


# ---------------------------------------------------------------------------
# Inductance map: bounded trust-region nonlinear least squares

#: Default coefficient box: |p_i| <= 1e3, with the exponent intercepts
#: (entries 3 and 7, zero-based) bounded below so the map stays
#: evaluable at F = 0 near zero pressure.
_EXP_INTERCEPT_FLOOR = 0.05


def default_inductance_bounds() -> tuple:
    lo = np.full(10, -1e3)
    hi = np.full(10, 1e3)
    lo[3] = _EXP_INTERCEPT_FLOOR
    lo[7] = _EXP_INTERCEPT_FLOOR
    return lo, hi


@dataclass
class _TrfResult:
    x: np.ndarray
    cost: float
    cost_log: list
    iterations: int
    converged: bool


def _reflect_into_box(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One reflection off each violated face, then a hard clip."""
    x = x.copy()
    below = x < lo
    x[below] = lo[below] + (lo[below] - x[below])
    above = x > hi
    x[above] = hi[above] - (x[above] - hi[above])
    return np.clip(x, lo, hi)


def _trf_minimize(residual, jacobian, x0, lo, hi,
                  xtol: float = 1e-10, ftol: float = 1e-12,
                  max_iter: int = 500) -> _TrfResult:
    """Dogleg trust-region least squares inside a bound box.

    The quadratic-model step is the Gauss-Newton step when it fits in
    the trust radius, otherwise the dogleg between the Cauchy point and
    the Gauss-Newton point; trial iterates leaving the box are
    reflected back in.  The radius adapts on the gain ratio (actual /
    predicted cost reduction), and only strictly improving steps are
    accepted, so the logged cost is monotone non-increasing.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = residual(x)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual not finite at the initial point")
    cost = 0.5 * float(r @ r)
    cost_log = [cost]
    delta = max(1.0, 0.1 * float(np.linalg.norm(x)))
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        J = jacobian(x, r)
        g = J.T @ r
        if not np.all(np.isfinite(g)):
            break
        if float(np.max(np.abs(g))) < 1e-15:
            converged = True
            break
        p_gn, _, _, _ = np.linalg.lstsq(J, -r, rcond=None)
        accepted = False
        while delta > 1e-14:
            if np.linalg.norm(p_gn) <= delta:
                p = p_gn
            else:
                Jg = J @ g
                t_c = float(g @ g) / float(Jg @ Jg)
                p_sd = -t_c * g
                n_sd = np.linalg.norm(p_sd)
                if n_sd >= delta:
                    p = -(delta / np.linalg.norm(g)) * g
                else:
                    # dogleg: walk from the Cauchy point toward Gauss-Newton
                    d = p_gn - p_sd
                    a = float(d @ d)
                    b = 2.0 * float(p_sd @ d)
                    cq = float(p_sd @ p_sd) - delta ** 2
                    tau = (-b + math.sqrt(max(b * b - 4 * a * cq, 0.0))) / (2 * a)
                    p = p_sd + tau * d
            x_trial = _reflect_into_box(x + p, lo, hi)
            p_actual = x_trial - x
            Jp = J @ p_actual
            pred_red = -(float(g @ p_actual) + 0.5 * float(Jp @ Jp))
            r_trial = residual(x_trial)
            cost_trial = 0.5 * float(r_trial @ r_trial) if np.all(np.isfinite(r_trial)) else math.inf
            if pred_red > 0 and cost_trial < cost:
                rho = (cost - cost_trial) / pred_red
                step_norm = float(np.linalg.norm(p_actual))
                prev_cost = cost
                x, r, cost = x_trial, r_trial, cost_trial
                cost_log.append(cost)
                accepted = True
                if rho > 0.75 and step_norm >= 0.9 * delta:
                    delta = min(2.0 * delta, 1e6)
                elif rho < 0.25:
                    delta = 0.25 * step_norm if step_norm > 0 else 0.25 * delta
                if step_norm <= xtol * (xtol + float(np.linalg.norm(x))):
                    converged = True
                if prev_cost - cost <= ftol * max(prev_cost, 1e-300):
                    converged = True
                break
            delta = 0.25 * min(delta, float(np.linalg.norm(p_actual)) or delta)
        if not accepted:
            # radius collapsed without an acceptable step: stationary enough
            converged = converged or delta <= 1e-14
            break
        if converged:
            break
    return _TrfResult(x=x, cost=cost, cost_log=cost_log, iterations=it, converged=converged)


def _inductance_residual_jacobian(F: np.ndarray, P: np.ndarray, L: np.ndarray):
    """Residual and Jacobian closures for the ten-coefficient fit.

    Jacobian columns for the linear-entering coefficients (amplitude
    and offset pairs) are analytic; the exponent/shape columns use
    forward differences, which also sidesteps the log(F) singularity of
    the analytic forms at F = 0.  The analytic columns take the map from
    ``model``: dL/dl1 is the formula with l1 = 1 and l5 = 0.

    J is allocated once, with the constant offset columns 8 and 9, and
    each ``jacobian`` call overwrites the other columns in place and
    returns it, so a caller must be done with one Jacobian before it
    asks for the next (``_trf_minimize`` takes one per iteration).  A
    call evaluates the coefficients and both powers of F once.  Entry j
    of a difference column enters only coefficient j // 2, so the column
    recomputes that coefficient, and its power if it is an exponent, and
    reuses the rest: the bits of a full re-evaluation of the map at the
    perturbed point.
    """
    J = np.empty((F.size, 10))
    J[:, 8] = P
    J[:, 9] = 1.0

    def residual(p):
        return model.eval_inductance(InductanceParams(tuple(p)), F, P, validate=False) - L

    def jacobian(p, r):
        params = InductanceParams(tuple(p))
        p, coeffs = params.p, model._coeffs(params, P)
        with np.errstate(all="ignore"):
            F_l2, F_l4 = np.power(F, coeffs[1]), np.power(F, coeffs[3])
            base = model._inductance_of_powers(F_l2, F_l4, 1.0, coeffs[2], 0.0)
            np.multiply(P, base, out=J[:, 0])
            J[:, 1] = base
            del base
            for j in range(2, 8):
                h = 1.4901161193847656e-08 * max(1.0, abs(p[j]))
                pj = list(p)
                pj[j] += h
                k = j // 2
                c = list(coeffs)
                c[k] = pj[2 * k] * P + pj[2 * k + 1]  # as model._coeffs has it
                col = J[:, j]
                np.subtract(model._inductance_of_powers(
                    np.power(F, c[1]) if k == 1 else F_l2,
                    np.power(F, c[3]) if k == 3 else F_l4, c[0], c[2], c[4]), L, out=col)
                np.subtract(col, r, out=col)
                np.divide(col, h, out=col)
        return J

    return residual, jacobian


def heuristic_inductance_init(data: Dataset) -> InductanceParams:
    """Data-driven starting point for the inductance fit.

    The offset coefficient pair comes from a linear pressure regression
    on low-force samples; amplitude, power, and decay come from a
    log-linear regression of the offset-corrected bump with the inner
    exponent fixed at 1.
    """
    if data.F is None:
        raise MissingColumnError("F", context="heuristic init needs a force channel")
    F, P, L = data.F, data.P, data.L
    f_lo = np.quantile(F, 0.05)
    low = F <= max(f_lo, 1e-3)
    if np.count_nonzero(low) >= 2 and np.ptp(P[low]) > 1e-9:
        A = np.column_stack([P[low], np.ones(np.count_nonzero(low))])
        (p9, p10), _, _, _ = np.linalg.lstsq(A, L[low], rcond=None)
    else:
        p9, p10 = 0.0, float(np.min(L))
    bump = L - (p9 * P + p10)
    ok = (F > max(f_lo, 1e-3)) & (bump > 1e-4)
    if np.count_nonzero(ok) >= 10:
        # log(bump) ~ log(l1) + l2*log(F) + l3*F  (l4 pinned at 1)
        A = np.column_stack([np.ones(np.count_nonzero(ok)), np.log(F[ok]), F[ok]])
        beta, _, _, _ = np.linalg.lstsq(A, np.log(bump[ok]), rcond=None)
        l1 = float(np.exp(np.clip(beta[0], -10, 10)))
        l2 = float(np.clip(beta[1], 0.2, 5.0))
        l3 = float(np.clip(beta[2], -5.0, -0.01))
    else:
        l1, l2, l3 = 0.5, 1.2, -0.5
    return InductanceParams((0.0, l1, 0.0, l2, 0.0, l3, 0.0, 1.0, float(p9), float(p10)))


def fit_inductance(data: Dataset, init: InductanceParams,
                   bounds: tuple | None = None,
                   n_starts: int = 8, seed: int = 0,
                   xtol: float = 1e-10, ftol: float = 1e-12,
                   max_iter: int = 500) -> FitReport:
    """Fit the ten inductance-map coefficients by bounded trust-region
    least squares with multi-start.

    Start 0 is ``init``; the remaining starts perturb it by +/-10%
    per coefficient (seeded), all clipped into the box.  The best final
    cost wins, ties broken by lowest start index.  Non-convergence is
    reported through ``converged`` rather than raised.
    """
    if data.F is None:
        raise MissingColumnError("F", context="fit_inductance needs a force channel")
    if len(data) < 20:
        raise ValueError(f"need at least 20 samples, got {len(data)}")
    if np.unique(np.round(data.P, 9)).size < 2:
        raise ValueError("need samples at two or more pressure levels")
    lo, hi = (np.asarray(b, dtype=float) for b in (bounds if bounds is not None
                                                   else default_inductance_bounds()))
    if lo.shape != (10,) or hi.shape != (10,) or np.any(lo >= hi):
        raise InvalidBoundsError("bounds must be two length-10 arrays with lo < hi")
    x0 = np.asarray(init.p, dtype=float)
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise InvalidBoundsError("initial point violates the bound box")

    # load-cell noise can dip below zero at slack; the map's domain is F >= 0
    residual, jacobian = _inductance_residual_jacobian(np.maximum(data.F, 0.0),
                                                       data.P, data.L)
    rng = np.random.default_rng(seed)
    best: _TrfResult | None = None
    for start in range(max(1, n_starts)):
        if start == 0:
            xs = x0
        else:
            scale = 1.0 + rng.uniform(-0.10, 0.10, size=10)
            shift = rng.uniform(-0.02, 0.02, size=10)
            xs = np.clip(x0 * scale + shift, lo, hi)
        try:
            res = _trf_minimize(residual, jacobian, xs, lo, hi,
                                xtol=xtol, ftol=ftol, max_iter=max_iter)
        except ValueError:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise ValueError("no start produced a finite residual")
    params = InductanceParams(tuple(best.x))
    pred = model.eval_inductance(params, np.maximum(data.F, 0.0), data.P, validate=False)
    gm = goodness(pred, data.L)
    return FitReport(params=params, rmse=gm.rmse, r2=gm.r2,
                     iterations=best.iterations, converged=best.converged,
                     cost_log=best.cost_log,
                     extra={"n_starts": max(1, n_starts)})
