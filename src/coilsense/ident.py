"""Parameter identification from test-bench datasets.

Two fitting paths: ordinary least squares for the affine force model,
and a bounded trust-region nonlinear least-squares solver (dogleg step
clipped to the trust radius, gain-ratio radius adaptation, iterates
reflected back into the bound box) for the ten-coefficient inductance
map.  The inductance fit is multi-started because the map is non-convex
in its coefficients: the starts are screened on a stride of the rows,
and only each distinct minimum they reach is polished on all of them.
"""

from __future__ import annotations

import csv
import io
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


class RankDeficientError(DataFormatError):
    """The regression design matrix is singular."""


class InvalidBoundsError(ValueError):
    """Initial point violates the bound box, or the box is malformed."""


class ConstantSeriesError(DataFormatError):
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

    A body that ``np.loadtxt`` takes whole is read at array speed (see
    ``_loadtxt_body``); any other goes to the cell-by-cell parser, the
    one source of the body's errors, so the result does not depend on
    which path ran.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh)
        header = _csv_header(path, reader)
        try:
            body = _loadtxt_body(fh.read().encode(), len(header))
        except UnicodeDecodeError:
            body = None
    if body is not None:
        # one contiguous row per column: strided views slowed the
        # inductance fit on them by about 10%
        cols = dict(zip(header, np.ascontiguousarray(body.T)))
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = _csv_rows(path, fh)
            next(reader)  # the header, checked above
            cols = _parse_cells(path, header, reader)
    return Dataset(
        t=cols["t"], P=cols["P"], L=cols["L"],
        F=cols.get("F"), x=cols.get("x"),
        meta={"source": path},
        extra={h: col for h, col in cols.items() if h not in _CSV_COLUMNS},
    )


def _csv_header(path: str, reader) -> list:
    """The checked header row of a dataset CSV: stripped names, none
    empty or repeated, ``t``, ``P`` and ``L`` among them."""
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
    return header


def _parse_cells(path: str, header: list, reader) -> dict:
    """The body rows after the header, parsed cell by cell with
    ``float``: blank lines are skipped, and a row of the wrong width, a
    cell that does not parse or no rows at all is a DataFormatError."""
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
    return cols


#: Characters ``np.loadtxt`` strips around a number and ``float`` does not.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_body(data: bytes, width: int):
    """The body's UTF-8 ``data`` as an (n, width) float array, or None
    where ``_parse_cells`` must decide.

    ``np.loadtxt`` (no comments, no quoting) parses a cell only if
    ``float`` does, to the same bits: it takes ASCII numbers with
    surrounding whitespace and rejects the underscores and non-ASCII
    digits that ``float`` also takes.  Two of its rules are wider, so
    the cell parser takes those texts: it strips the separators
    U+001C-U+001F as whitespace, which ``float`` does not, and it has no
    field size limit, so a line longer than the CSV reader's limit is
    left to the cell parser too.  It skips empty lines as
    ``_parse_cells`` does, and it raises ValueError for a line end the
    CSV reader would take inside a line (a lone CR).  Text it raises
    ValueError for, a width other than the header's and a body with no
    data also go to the cell parser.  It reads the bytes a line at a
    time, which holds less memory than the cell parser's lists.
    """
    limit = csv.field_size_limit()
    if len(data) > limit and max(map(len, io.BytesIO(data))) > limit:
        return None
    if not data or data.isspace():
        return None  # no data, on which np.loadtxt warns
    if any(sep in data for sep in _LOADTXT_ONLY_SPACE):
        return None
    try:
        body = np.loadtxt(io.BytesIO(data), dtype=float, delimiter=",", comments=None,
                          ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    return body if body.shape[0] and body.shape[1] == width else None


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


#: Rows ``write_columns`` formats at a time.  A block's values live as
#: Python floats only while it is formatted: with 4096-row blocks,
#: ``coilsense estimate`` on 11,200 rows peaked about 2 MB higher.
_WRITE_BLOCK_ROWS = 512


def write_columns(path: str, columns: dict) -> None:
    """Write equal-length named columns as a CSV atomically: a header
    line, then one comma-joined row per sample, every value as ``.12g``.

    Rows are formatted a block at a time by a ``"%.12g,..."`` template,
    which gives the text of ``format(value, ".12g")`` for every float,
    NaN, infinities, signed zeros and subnormals included."""
    arrays = [np.asarray(col, dtype=float) for col in columns.values()]
    row = ",".join(["%.12g"] * len(arrays))
    chunks = [",".join(columns)]
    for i in range(0, arrays[0].size, _WRITE_BLOCK_ROWS):
        block = [a[i:i + _WRITE_BLOCK_ROWS].tolist() for a in arrays]
        chunks.append("\n".join([row % values for values in zip(*block)]))
    chunks.append("")  # the last line end, without copying the text again
    model._atomic_write_text(path, "\n".join(chunks))


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
    iteration.  For the inductance fit, index 0 is the initial cost of
    the winning polish on all rows (of the winning start when the screen
    ran on all rows and nothing was polished).
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

    Needs force and length channels, at least 3 samples, a force that
    is not constant (else ConstantSeriesError), and at least two
    distinct lengths and pressures (else RankDeficientError).  A fit
    whose k, x0 or c is not positive, or whose squared residuals
    overflow, is a DataFormatError too.
    """
    if data.F is None:
        raise MissingColumnError("F", context="fit_dynamic needs a force channel")
    if data.x is None:
        raise MissingColumnError("x", context="fit_dynamic needs a length channel")
    if len(data) < 3:
        raise DataFormatError(f"need at least 3 samples, got {len(data)}")
    if np.ptp(data.F) == 0.0:
        raise ConstantSeriesError(f"force column F is constant ({data.F[0]:g} N)")
    A = np.column_stack([data.x, data.P, np.ones(len(data))])
    if np.linalg.matrix_rank(A) < 3:
        raise RankDeficientError(
            "design matrix is rank deficient (need at least two distinct x and two distinct P)"
        )
    beta, _, _, _ = np.linalg.lstsq(A, data.F, rcond=None)
    k, c, intercept = (float(b) for b in beta)
    try:
        params = DynamicParams(k=k, x0=-intercept / k if k else math.nan, c=c)
    except ValueError as exc:
        raise DataFormatError(f"the fitted force model is not physical: {exc}") from None
    pred = model.eval_dynamic_force(params, data.x, data.P)
    with np.errstate(over="ignore"):
        gm = goodness(pred, data.F)
        cost = 0.5 * float(np.sum((pred - data.F) ** 2))
    if not math.isfinite(cost):
        raise DataFormatError(f"the force fit's squared residuals overflow: |F| up to "
                              f"{np.max(np.abs(data.F)):g} N is out of floating-point range")
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


def _half_sum_squares(r: np.ndarray) -> float:
    """0.5 * r @ r by ``np.einsum``, whose sum does not depend on the
    BLAS thread count as OpenBLAS's ``ddot`` on 25,200 rows does."""
    return 0.5 * float(np.einsum("i,i->", r, r))


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

    Each iteration forms the normal matrix N = J^T J and the gradient
    g = J^T r once; every quadratic form after that is taken from N, so
    no other product runs over the samples.  The Gauss-Newton step
    solves N p = -g with N scaled to unit diagonal (Jacobi scaling, as
    More's Levenberg-Marquardt scales its columns; a zero column keeps
    the scale 1), by ``lstsq`` on the 10 x 10 system so that a
    rank-deficient J still gives the least-norm step.  ``jacobian`` is
    always asked at the point ``residual`` last saw.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = residual(x)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual not finite at the initial point")
    cost = _half_sum_squares(r)
    cost_log = [cost]
    delta = max(1.0, 0.1 * float(np.linalg.norm(x)))
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        J = jacobian(x, r)
        N = J.T @ J
        g = J.T @ r
        if not np.all(np.isfinite(g)):
            break
        if float(np.max(np.abs(g))) < 1e-15:
            converged = True
            break
        s = np.sqrt(np.diag(N))
        s[s == 0.0] = 1.0
        q, _, _, _ = np.linalg.lstsq(N / np.outer(s, s), -g / s, rcond=None)
        p_gn = q / s
        accepted = False
        while delta > 1e-14:
            if np.linalg.norm(p_gn) <= delta:
                p = p_gn
            else:
                t_c = float(g @ g) / float(g @ N @ g)
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
            pred_red = -(float(g @ p_actual) + 0.5 * float(p_actual @ N @ p_actual))
            r_trial = residual(x_trial)
            cost_trial = _half_sum_squares(r_trial) if np.all(np.isfinite(r_trial)) else math.inf
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

    With M = l1 * F**l2 * exp(l3 * F**l4) every column is analytic:

        dL/dl1 = F**l2 * exp(l3 * F**l4)    dL/dl2 = M * ln F
        dL/dl3 = M * F**l4                  dL/dl4 = l3 * M * F**l4 * ln F

    and dL/dl5 = 1.  Coefficient k is p[2k] * P + p[2k+1], so column
    2k + 1 is dL/dl(k+1) and column 2k is P times it.  ln F is taken
    once per fit, with 0 where F = 0: M is 0 there (l2 > 0), so 0 is
    the limit of every column that carries ln F.

    ``residual`` evaluates the map in ``model._inductance_of_powers``'s
    order, so its bits are those of ``model.eval_inductance`` - L, and
    keeps F**l2, F**l4 and exp(l3 * F**l4) of the point it last saw.
    ``jacobian`` reuses them when asked at that point, as
    ``_trf_minimize`` always does, so it calls no ``np.power`` and no
    ``np.exp``; at any other point it evaluates the residual first.

    J is allocated once, column-major so that each column is written
    contiguously, with the constant columns 8 and 9; each ``jacobian``
    call overwrites the other columns in place and returns it, so a
    caller must be done with one Jacobian before it asks for the next.
    """
    J = np.empty((10, F.size)).T
    J[:, 8] = P
    J[:, 9] = 1.0
    ln_F = np.zeros_like(F)
    np.log(F, out=ln_F, where=F > 0.0)
    last = {}  # the point ``residual`` last saw, and its arrays

    def residual(p):
        params = InductanceParams(tuple(p))
        l1, l2, l3, l4, l5 = model._coeffs(params, P)
        with np.errstate(all="ignore"):
            F_l2, F_l4 = np.power(F, l2), np.power(F, l4)
            E = np.exp(l3 * F_l4)
            last["p"], last["arrays"] = params.p, (l1, l3, F_l2, F_l4, E)
            r = l1 * F_l2
            r *= E
            r += l5
            r -= L
        return r

    def jacobian(p, r):
        if tuple(map(float, p)) != last.get("p"):
            residual(p)
        l1, l3, F_l2, F_l4, E = last["arrays"]
        with np.errstate(all="ignore"):
            np.multiply(F_l2, E, out=J[:, 1])
            M = l1 * F_l2
            M *= E
            np.multiply(M, ln_F, out=J[:, 3])
            np.multiply(M, F_l4, out=J[:, 5])
            del M
            np.multiply(l3, J[:, 5], out=J[:, 7])
            np.multiply(J[:, 7], ln_F, out=J[:, 7])
            for k in range(4):
                np.multiply(P, J[:, 2 * k + 1], out=J[:, 2 * k])
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


#: Rows the multi-start screen keeps at least: it fits every
#: ``len(data) // SCREEN_ROWS``-th row, so data under ``2 * SCREEN_ROWS``
#: rows screens on all of them.  An iteration costs about linearly in
#: the rows.  On the 25,200-row calibration grid (every 6th row, 4,200
#: kept; seeds 0-15) every screened start ended in the all-rows fit's
#: basin, and one polish of 4-11 iterations on all rows matched that
#: fit's rmse to 5e-14 relative.
SCREEN_ROWS = 4096

#: Relative distance, per coefficient, within which a screened minimum
#: joins an earlier one's basin.  Starts that end in one basin agree to
#: about 1e-5 (the screen's own tolerances), while distinct minima of
#: the map differ in their leading digits, so 1e-3 parts them.
_BASIN_RTOL = 1e-3


def fit_inductance(data: Dataset, init: InductanceParams,
                   bounds: tuple | None = None,
                   n_starts: int = 8, seed: int = 0,
                   xtol: float = 1e-10, ftol: float = 1e-12,
                   max_iter: int = 500) -> FitReport:
    """Fit the ten inductance-map coefficients by bounded trust-region
    least squares with multi-start, coarse to fine.

    Start 0 is ``init``; the remaining starts perturb it by +/-10%
    per coefficient (seeded), all clipped into the box.

    Every start first runs to convergence on every ``stride``-th row,
    ``stride = max(1, len(data) // SCREEN_ROWS)``, or on all rows when
    the strided rows hold a single pressure level.  The screened minima,
    taken by screen cost (ties by start index), are grouped into basins:
    a minimum joins the first basin whose first member it matches in
    every coefficient to ``_BASIN_RTOL`` relative.  Each basin's first
    member is then polished on all rows, and the lowest full-data cost
    wins, ties by basin order.  When the screen ran on all rows nothing
    is polished, and the lowest-cost start wins, ties by start index.

    ``iterations``, ``converged`` and ``cost_log`` are the winner's
    (its polish's when there was one); ``extra`` holds ``n_starts``,
    ``screen_rows`` and ``polished`` (the number of polishes).
    Non-convergence is reported through ``converged`` rather than raised.
    """
    if data.F is None:
        raise MissingColumnError("F", context="fit_inductance needs a force channel")
    if len(data) < 20:
        raise DataFormatError(f"need at least 20 samples, got {len(data)}")
    if np.unique(np.round(data.P, 9)).size < 2:
        raise DataFormatError("need samples at two or more pressure levels")
    if np.ptp(data.L) == 0.0:
        raise ConstantSeriesError(f"inductance column L is constant ({data.L[0]:g} uH)")
    lo, hi = (np.asarray(b, dtype=float) for b in (bounds if bounds is not None
                                                   else default_inductance_bounds()))
    if lo.shape != (10,) or hi.shape != (10,) or np.any(lo >= hi):
        raise InvalidBoundsError("bounds must be two length-10 arrays with lo < hi")
    x0 = np.asarray(init.p, dtype=float)
    outside = np.flatnonzero((x0 < lo) | (x0 > hi))
    if outside.size:
        raise InvalidBoundsError(f"initial point violates the bound box at coefficient(s) "
                                 f"{outside.tolist()} (zero-based)")

    # load-cell noise can dip below zero at slack; the map's domain is F >= 0
    F = np.maximum(data.F, 0.0)
    stride = max(1, len(data) // SCREEN_ROWS)
    if np.unique(np.round(data.P[::stride], 9)).size < 2:
        stride = 1  # the strided rows lost the pressure dependence
    rows = [np.ascontiguousarray(col[::stride]) for col in (F, data.P, data.L)]
    residual, jacobian = _inductance_residual_jacobian(*rows)

    def minimize(residual, jacobian, xs) -> _TrfResult | None:
        try:
            return _trf_minimize(residual, jacobian, xs, lo, hi,
                                 xtol=xtol, ftol=ftol, max_iter=max_iter)
        except ValueError:
            return None

    rng = np.random.default_rng(seed)
    screened = []
    for start in range(max(1, n_starts)):
        if start == 0:
            xs = x0
        else:
            scale = 1.0 + rng.uniform(-0.10, 0.10, size=10)
            shift = rng.uniform(-0.02, 0.02, size=10)
            xs = np.clip(x0 * scale + shift, lo, hi)
        res = minimize(residual, jacobian, xs)
        if res is not None:
            screened.append(res)
    finalists = sorted(screened, key=lambda res: res.cost)  # stable: ties keep start order
    basins = []  # the first screened minimum of each basin
    if stride > 1:
        for res in finalists:
            if not any(np.all(np.abs(res.x - lead.x) <= _BASIN_RTOL * np.abs(lead.x))
                       for lead in basins):
                basins.append(res)
        residual, jacobian = _inductance_residual_jacobian(F, data.P, data.L)
        polished = (minimize(residual, jacobian, lead.x) for lead in basins)
        finalists = [res for res in polished if res is not None]
    if not finalists:
        raise DataFormatError("no start produced a finite residual")
    best = min(finalists, key=lambda res: res.cost)  # the first of equal costs
    params = InductanceParams(tuple(best.x))
    pred = model.eval_inductance(params, F, data.P, validate=False)
    gm = goodness(pred, data.L)
    return FitReport(params=params, rmse=gm.rmse, r2=gm.r2,
                     iterations=best.iterations, converged=best.converged,
                     cost_log=best.cost_log,
                     extra={"n_starts": max(1, n_starts), "screen_rows": rows[0].size,
                            "polished": len(basins)})
