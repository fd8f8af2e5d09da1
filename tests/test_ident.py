import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilsense import ident, model, plant
from coilsense.ident import (ConstantSeriesError, Dataset, DataFormatError,
                             InvalidBoundsError, MissingColumnError,
                             RankDeficientError)
from coilsense.model import DynamicParams, InductanceParams

REF = plant.reference_inductance_params()


def synth_dynamic(n=60, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    dyn = DynamicParams(38.6, 0.100, 1.6310)
    x = rng.uniform(0.08, 0.18, n)
    P = rng.uniform(0.0, 0.65, n)
    F = model.eval_dynamic_force(dyn, x, P) + noise * rng.standard_normal(n)
    return dyn, Dataset(t=np.arange(n) * 0.1, P=P, L=np.full(n, 5.0), F=F, x=x)


def synth_inductance(noise=0.0, seed=0, n_f=40, n_p=8):
    rng = np.random.default_rng(seed)
    F = np.tile(np.linspace(0.0, 4.5, n_f), n_p)
    P = np.repeat(np.linspace(0.0, 0.65, n_p), n_f)
    L = model.eval_inductance(REF, F, P) + noise * rng.standard_normal(F.size)
    return Dataset(t=np.arange(F.size) * 0.01, P=P, L=L, F=F)


class TestGoodness:
    def test_perfect(self):
        g = ident.goodness([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert g.rmse == 0.0 and g.mae == 0.0 and g.r2 == 1.0 and g.nrmse == 0.0

    def test_hand_values(self):
        g = ident.goodness([0, 1, 2, 4], [0, 1, 2, 3])
        assert g.rmse == pytest.approx(0.5, abs=1e-15)
        assert g.mae == pytest.approx(0.25, abs=1e-15)
        assert g.nrmse == pytest.approx(100.0 * 0.5 / 3.0, abs=1e-9)
        assert g.r2 == pytest.approx(1.0 - 1.0 / 5.0, abs=1e-12)

    def test_mean_predictor_r2_zero(self):
        obs = np.array([0.0, 1.0, 2.0, 3.0])
        g = ident.goodness(np.full(4, obs.mean()), obs)
        assert g.r2 == pytest.approx(0.0, abs=1e-12)

    def test_constant_observed_rejected(self):
        with pytest.raises(ConstantSeriesError):
            ident.goodness([1.0, 2.0], [3.0, 3.0])

    def test_nrmse_shift_invariant(self):
        a = np.array([0.1, 0.9, 2.2, 2.8])
        b = np.array([0.0, 1.0, 2.0, 3.0])
        assert ident.goodness(a, b).nrmse == pytest.approx(
            ident.goodness(a + 7.0, b + 7.0).nrmse, rel=1e-12)

    def test_rmse_symmetric(self):
        a = np.array([0.1, 0.9, 2.2, 2.8])
        b = np.array([0.0, 1.0, 2.0, 3.0])
        assert ident.goodness(a, b).rmse == ident.goodness(b, a).rmse


class TestDataset:
    def test_timestamps_strictly_increasing(self):
        with pytest.raises(DataFormatError):
            Dataset(t=[0.0, 0.0], P=[0, 0], L=[5, 5])

    def test_negative_pressure_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset(t=[0.0, 1.0], P=[0.1, -0.2], L=[5, 5])

    @pytest.mark.parametrize("column", ["t", "P", "L", "F", "x"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_channel_rejected(self, column, bad):
        cols = {"t": [0.0, 1.0, 2.0], "P": [0.1, 0.2, 0.3], "L": [5.0, 5.1, 5.2],
                "F": [1.0, 1.1, 1.2], "x": [0.10, 0.11, 0.12]}
        cols[column][1] = bad
        with pytest.raises(DataFormatError, match=f"'{column}'"):
            Dataset(**cols)

    def test_csv_round_trip(self, tmp_path):
        _, ds = synth_dynamic(n=10)
        path = str(tmp_path / "d.csv")
        extra = {"F_hat": ds.F + 0.25, "x_hat": ds.x - 0.001}
        ident.write_csv(ds, path, extra=extra)
        back = ident.read_csv(path)
        assert np.allclose(back.t, ds.t, rtol=1e-12)
        assert np.allclose(back.F, ds.F, rtol=1e-12)
        assert np.allclose(back.x, ds.x, rtol=1e-12)
        assert list(back.extra) == ["F_hat", "x_hat"]
        for name, col in extra.items():
            assert np.allclose(back.extra[name], col, rtol=1e-12)
        # the extras read back are written again
        again = str(tmp_path / "again.csv")
        ident.write_csv(back, again)
        assert open(again).read() == open(path).read()

    def test_csv_bad_column_names_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,P,L,F_hat,F_hat\n0,0,5,1,2\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            ident.read_csv(str(path))
        path.write_text("t,P,L,\n0,0,5,1\n")
        with pytest.raises(DataFormatError, match="empty column name"):
            ident.read_csv(str(path))
        ds = Dataset(t=[0.0, 1.0], P=[0.1, 0.2], L=[5.0, 5.1], F=[1.0, 2.0])
        with pytest.raises(DataFormatError, match="standard"):
            ident.write_csv(ds, str(tmp_path / "w.csv"), extra={"F": [0.0, 0.0]})

    @pytest.mark.parametrize("name", ["a,b", " pad", "pad ", "", 'a"b', "a\nb", "a\rb",
                                      "a\x00b", "\ud800", 7])
    def test_csv_unreadable_extra_name_rejected(self, tmp_path, name):
        # before the check, "a,b" wrote a file read_csv rejected
        # (expected 5 fields, got 4) and " pad" read back as "pad"
        ds = Dataset(t=[0.0, 1.0], P=[0.1, 0.2], L=[5.0, 5.1])
        path = tmp_path / "w.csv"
        with pytest.raises(DataFormatError, match="read back"):
            ident.write_csv(ds, str(path), extra={name: [0.0, 1.0]})
        assert not path.exists()
        with pytest.raises(DataFormatError, match="read back"):
            ident.write_csv(Dataset(t=[0.0], P=[0.1], L=[5.0], extra={name: [2.0]}), str(path))
        assert not path.exists()

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,P\n0,0\n")
        with pytest.raises(MissingColumnError) as exc:
            ident.read_csv(str(path))
        assert exc.value.column == "L"

    def test_csv_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,P,L\n0,0,5\n1,oops,5\n")
        with pytest.raises(DataFormatError, match="line 3"):
            ident.read_csv(str(path))

    def test_csv_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            ident.read_csv(str(path))


def written(v: float) -> float:
    """``v`` as ``write_csv`` stores it: 12 significant digits."""
    return float(format(v, ".12g"))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTRA_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
    lambda name: name not in ("t", "P", "L", "F", "x"))


@st.composite
def datasets(draw):
    """Finite datasets whose timestamps stay strictly increasing once
    written, with or without ``F``, ``x`` and extra columns."""
    t = sorted(draw(st.lists(FINITE, min_size=1, max_size=12, unique_by=written)))
    n = len(t)
    column = st.lists(FINITE, min_size=n, max_size=n)
    return Dataset(
        t=t, P=draw(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                             min_size=n, max_size=n)),
        L=draw(column),
        F=draw(st.none() | column), x=draw(st.none() | column),
        extra={name: draw(column)
               for name in draw(st.lists(EXTRA_NAMES, max_size=3, unique=True))})


#: Fragments of CSV text: column names, numbers in several spellings,
#: words, quotes, separators, line ends and characters a reader may choke on.
CSV_PIECES = st.sampled_from(
    ["t", "P", "L", "F", "x", "F_hat", "0", "1", "-1", "2.5e-3", "1e999", "nan", "-inf",
     "1_0", "oops", "", " ", ",", ",,", '"', '"1,2"', "\n", "\r\n", "\r", "\x00",
     "\ufeff", "\u0661"])
MALFORMED = st.one_of(
    st.lists(CSV_PIECES, max_size=40).map(lambda parts: "".join(parts).encode()),
    st.text(max_size=80).map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.binary(max_size=80))


class TestCsvProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(ds=datasets())
    def test_write_read_write(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        ident.write_csv(ds, str(path))
        back = ident.read_csv(str(path))
        for name in ("t", "P", "L", "F", "x"):
            col = getattr(ds, name)
            if col is None:
                assert getattr(back, name) is None
            else:
                assert np.array_equal(getattr(back, name), [written(v) for v in col])
        assert list(back.extra) == list(ds.extra)
        for name, col in ds.extra.items():
            assert np.array_equal(back.extra[name], [written(v) for v in col])
        again = path.with_name("again.csv")
        ident.write_csv(back, str(again))
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=300, deadline=None, database=None)
    @given(name=st.text(max_size=12).filter(lambda name: name not in ("t", "P", "L", "F", "x")))
    def test_extra_name_reads_back_or_is_rejected(self, tmp_path_factory, name):
        ds = Dataset(t=[0.0, 1.0], P=[0.1, 0.2], L=[5.0, 5.1])
        path = tmp_path_factory.mktemp("csv") / "n.csv"
        try:
            ident.write_csv(ds, str(path), extra={name: [0.5, -2.0]})
        except DataFormatError:
            assert not path.exists()
            return
        back = ident.read_csv(str(path))
        assert list(back.extra) == [name]
        assert np.array_equal(back.extra[name], [0.5, -2.0])

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=MALFORMED)
    def test_malformed_text_is_a_data_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(data)
        try:
            assert isinstance(ident.read_csv(str(path)), Dataset)
        except DataFormatError:
            pass


def cell_read(path):
    """``read_csv`` on the cell-by-cell parser alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = ident._csv_rows(path, fh)
        header = ident._csv_header(path, reader)
        cols = ident._parse_cells(path, header, reader)
    return Dataset(t=cols["t"], P=cols["P"], L=cols["L"], F=cols.get("F"), x=cols.get("x"),
                   extra={h: c for h, c in cols.items() if h not in ("t", "P", "L", "F", "x")})


def outcome(read, path):
    """The columns ``read(path)`` returns, as bytes, or its DataFormatError."""
    try:
        ds = read(path)
    except DataFormatError as exc:
        return type(exc), str(exc)
    cols = {name: getattr(ds, name) for name in ("t", "P", "L", "F", "x")}
    return {name: None if col is None else col.tobytes()
            for name, col in {**cols, **ds.extra}.items()}


#: Numbers as ``repr`` and ``.12g`` write them, and spellings that both
#: ``float`` and ``np.loadtxt`` take.
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: format(v, ".12g")),
    st.sampled_from([" 2.5 ", "\t3", "4\x85", "\u20035", "-nan", "NaN", "-Infinity",
                     "1e400", "1e-400", "+.5", "5.", "0" * 40 + "1"]))
#: Cells in the spellings a CSV body may hold: numbers, and text that
#: ``float`` and ``np.loadtxt`` may take differently or not at all,
#: such as a number between arbitrary characters.
CELLS = st.one_of(
    NUMBERS,
    st.sampled_from(["1_0", "\u0661\u0662", "#1", "1#", '"1.5"', '"1', "", " ", " 4",
                     "\x1c5", "nan", "inf", "0x1p3", "1d3", "1 2", "1\x00", "nan(1)", "1j",
                     "\ufeff1"]),
    st.text(alphabet="0123456789.eE+-_ #\"\t\u0661\u2003naif", max_size=6),
    st.builds("{}{}{}".format, st.text(max_size=2), st.sampled_from(["1", "-2.5", "nan"]),
              st.text(max_size=2)))


@st.composite
def csv_bodies(draw):
    """CSV text under a 3-5 column header, with one of the three line
    ends: either valid rows of numbers with at most one odd cell, or a
    mix of rows of the header's width whose ``t``, ``P`` and ``L`` are
    valid or drawn cells, rows of other widths, blank and whitespace
    lines and trailing commas."""
    width = draw(st.integers(3, 5))
    header = ["t", "P", "L", "F", "F_hat"][:width]
    noisy = draw(st.booleans())  # else rows of numbers, at most one cell drawn from CELLS
    odd = draw(st.integers(0, 20))
    rows = []
    for i in range(draw(st.integers(0, 8))):
        if not noisy:
            cells = [str(i), "0.25", "5.1"] + draw(st.lists(NUMBERS, min_size=width - 3,
                                                            max_size=width - 3))
            if i == odd:
                cells[draw(st.integers(0, width - 1))] = draw(CELLS)
            rows.append(",".join(cells))
            continue
        kind = draw(st.integers(0, 9))
        if kind < 6:
            cells = draw(st.lists(CELLS, min_size=width, max_size=width))
            if kind < 4:
                cells[:3] = [str(i), "0.25", "5.1"]
            rows.append(",".join(cells))
        elif kind < 8:
            rows.append(",".join(draw(st.lists(CELLS, min_size=1, max_size=width + 1))))
        else:
            rows.append(draw(st.sampled_from(["", " ", "\t", ",".join(["1"] * width) + ","])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ",".join(header) + end + end.join(rows) + draw(st.sampled_from(["", end]))


class TestCsvFastPaths:
    @settings(max_examples=500, deadline=None, database=None)
    @given(text=csv_bodies())
    def test_fast_reader_equals_cell_parser(self, tmp_path_factory, text):
        path = str(tmp_path_factory.mktemp("csv") / "b.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert outcome(ident.read_csv, path) == outcome(cell_read, path)

    def test_clean_body_skips_the_cell_parser(self, tmp_path, monkeypatch):
        ds = Dataset(t=np.arange(5000) * 0.01, P=np.full(5000, 0.3),
                     L=np.linspace(4.6, 5.4, 5000), extra={"q": np.full(5000, -0.0)})
        path = str(tmp_path / "clean.csv")
        ident.write_csv(ds, path)
        want = outcome(cell_read, path)
        monkeypatch.setattr(ident, "_parse_cells", None)
        assert outcome(ident.read_csv, path) == want

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on a body with no data
    @pytest.mark.parametrize("body", ["0,1,2,3\n1,1,2,3\n", "0,1\n1,1\n", "", "\n\r\n", " \n"],
                             ids=["wider", "narrower", "empty", "blank_lines", "whitespace_line"])
    def test_rows_of_another_width_or_none(self, tmp_path, body):
        path = str(tmp_path / "b.csv")
        with open(path, "w", newline="") as fh:
            fh.write("t,P,L\n" + body)
        got = outcome(ident.read_csv, path)
        assert got == outcome(cell_read, path)
        assert got[0] is DataFormatError

    def test_field_over_the_csv_limit_is_the_readers_error(self, tmp_path):
        # np.loadtxt would take this 200,001-digit number; the CSV reader
        # refuses the field, and that refusal is the result
        path = str(tmp_path / "long.csv")
        with open(path, "w") as fh:
            fh.write("t,P,L\n0," + "0" * 200_000 + "1,5\n")
        got = outcome(ident.read_csv, path)
        assert got == outcome(cell_read, path)
        assert "field larger than field limit" in got[1]

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=20),
           bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=20))
    def test_writer_template_equals_format(self, tmp_path_factory, values, bits):
        # every float, NaN, infinities, signed zeros and subnormals among
        # them, is written as format(value, ".12g")
        values = values + np.array(bits, dtype=np.uint64).view(np.float64).tolist()
        values += [-0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.nan]
        path = tmp_path_factory.mktemp("csv") / "w.csv"
        ident.write_columns(str(path), {"a": values, "b": values[::-1]})
        want = ["a,b"] + [f"{format(u, '.12g')},{format(v, '.12g')}"
                          for u, v in zip(values, values[::-1])]
        assert path.read_text() == "\n".join(want) + "\n"

    def test_writer_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ident, "_WRITE_BLOCK_ROWS", 3)
        path = tmp_path / "blocks.csv"
        ident.write_columns(str(path), {"a": np.arange(10) / 3.0})
        want = ["a"] + [format(v / 3.0, ".12g") for v in range(10)]
        assert path.read_text() == "\n".join(want) + "\n"


class TestFitDynamic:
    def test_exact_recovery(self):
        dyn, ds = synth_dynamic()
        rep = ident.fit_dynamic(ds)
        assert rep.converged
        assert rep.params.k == pytest.approx(dyn.k, rel=1e-9)
        assert rep.params.x0 == pytest.approx(dyn.x0, rel=1e-9)
        assert rep.params.c == pytest.approx(dyn.c, rel=1e-9)
        assert rep.rmse <= 1e-9

    def test_rank_deficiency(self):
        n = 10
        ds = Dataset(t=np.arange(n), P=np.full(n, 0.3), L=np.full(n, 5.0),
                     F=np.linspace(0, 1, n), x=np.full(n, 0.12))
        with pytest.raises(RankDeficientError):
            ident.fit_dynamic(ds)

    def test_noisy_recovery_within_5pct(self):
        dyn, ds = synth_dynamic(n=200, noise=0.05, seed=7)
        rep = ident.fit_dynamic(ds)
        assert rep.params.k == pytest.approx(dyn.k, rel=0.05)

    def test_requires_channels(self):
        ds = Dataset(t=[0, 1, 2], P=[0, 0.1, 0.2], L=[5, 5, 5])
        with pytest.raises(MissingColumnError):
            ident.fit_dynamic(ds)


class TestFitInductance:
    def test_noise_free_recovery(self):
        ds = synth_inductance()
        rng = np.random.default_rng(3)
        init = InductanceParams(tuple(np.array(REF.p) * (1 + rng.uniform(-0.2, 0.2, 10))))
        rep = ident.fit_inductance(ds, init, seed=0)
        assert rep.converged
        assert rep.rmse <= 1e-8

    def test_noisy_fit_quality(self):
        sigma = 0.01
        ds = synth_inductance(noise=sigma, seed=5, n_f=80, n_p=10)
        rep = ident.fit_inductance(ds, REF, seed=0)
        assert 0.5 * sigma <= rep.rmse <= 2.0 * sigma
        assert rep.r2 >= 0.99

    def test_cost_log_monotone(self):
        ds = synth_inductance(noise=0.01, seed=2)
        rep = ident.fit_inductance(ds, REF, seed=0)
        log = np.asarray(rep.cost_log)
        assert log.size >= 2
        assert np.all(np.diff(log) <= 0)

    def test_bounds_respected(self):
        ds = synth_inductance()
        lo = np.array(REF.p) - 0.05
        hi = np.array(REF.p) + 0.05
        start = InductanceParams(tuple(np.array(REF.p) + 0.04))
        rep = ident.fit_inductance(ds, start, bounds=(lo, hi), seed=0)
        p = np.asarray(rep.params.p)
        assert np.all(p >= lo) and np.all(p <= hi)

    def test_init_outside_bounds(self):
        ds = synth_inductance()
        lo, hi = ident.default_inductance_bounds()
        bad = InductanceParams(tuple(np.array(REF.p) + 2e3))
        with pytest.raises(InvalidBoundsError):
            ident.fit_inductance(ds, bad, bounds=(lo, hi))

    def test_preconditions(self):
        small = synth_inductance(n_f=3, n_p=2)
        short = Dataset(t=small.t[:10], P=small.P[:10], L=small.L[:10], F=small.F[:10])
        with pytest.raises(ValueError):
            ident.fit_inductance(short, REF)
        n = 30
        one_p = Dataset(t=np.arange(n) * 0.1, P=np.full(n, 0.2),
                        L=np.full(n, 5.0), F=np.linspace(0, 2, n))
        with pytest.raises(ValueError):
            ident.fit_inductance(one_p, REF)

    def test_report_json(self, tmp_path):
        ds = synth_inductance()
        rep = ident.fit_inductance(ds, REF, n_starts=1, seed=0)
        path = str(tmp_path / "rep.json")
        rep.to_json(path)
        import json
        doc = json.load(open(path))
        assert doc["converged"] is True
        assert len(doc["params"]["p"]) == 10
        assert doc["cost_log"][-1] <= doc["cost_log"][0]


def recomputed_jacobian(F, P, L):
    """Forward-difference residual and Jacobian closures, the fit's
    derivatives before they were analytic: a fresh matrix per call, and
    every exponent column from a full re-evaluation of the map at its
    perturbed point."""
    def residual(p):
        return model.eval_inductance(InductanceParams(tuple(p)), F, P, validate=False) - L

    def jacobian(p, r):
        J = np.empty((F.size, 10))
        _, l2, l3, l4, _ = model._coeffs(InductanceParams(tuple(p)), P)
        with np.errstate(all="ignore"):
            base = model._inductance_of_powers(np.power(F, l2), np.power(F, l4), 1.0, l3, 0.0)
        J[:, 0] = P * base
        J[:, 1] = base
        J[:, 8] = P
        J[:, 9] = 1.0
        for j in range(2, 8):
            h = 1.4901161193847656e-08 * max(1.0, abs(float(p[j])))
            pj = np.array(p, dtype=float)
            pj[j] += h
            J[:, j] = (residual(pj) - r) / h
        return J

    return residual, jacobian


def reference_trf_minimize(residual, jacobian, x0, lo, hi,
                           xtol=1e-10, ftol=1e-12, max_iter=500):
    """``ident._trf_minimize`` with its Gauss-Newton step taken by SVD
    ``lstsq`` on the whole Jacobian, and every quadratic form from a
    product over the samples: the reference for the normal-equation
    step."""
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
                p_sd = -(float(g @ g) / float(Jg @ Jg)) * g
                if np.linalg.norm(p_sd) >= delta:
                    p = -(delta / np.linalg.norm(g)) * g
                else:
                    d = p_gn - p_sd
                    a = float(d @ d)
                    b = 2.0 * float(p_sd @ d)
                    cq = float(p_sd @ p_sd) - delta ** 2
                    p = p_sd + (-b + math.sqrt(max(b * b - 4 * a * cq, 0.0))) / (2 * a) * d
            x_trial = ident._reflect_into_box(x + p, lo, hi)
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
            converged = converged or delta <= 1e-14
            break
        if converged:
            break
    return ident._TrfResult(x=x, cost=cost, cost_log=cost_log, iterations=it,
                            converged=converged)


def central_jacobian(residual, p):
    """Every column by central differences, step (eps)**(1/3) * max(1, |p_j|)."""
    cols = []
    for j in range(10):
        h = np.finfo(float).eps ** (1 / 3) * max(1.0, abs(float(p[j])))
        up, down = np.array(p, dtype=float), np.array(p, dtype=float)
        up[j] += h
        down[j] -= h
        cols.append((residual(up) - residual(down)) / (2.0 * h))
    return np.column_stack(cols)


@pytest.fixture(scope="module")
def grid_data():
    """A short simulated calibration grid (noisy sensors, hysteresis)."""
    scn = plant.Scenario(kind="calibration_grid", p_levels=(0.0, 0.15, 0.3, 0.45, 0.6),
                         cycles_per_level=1, cycle_period_s=3.0, x_low=0.1, x_high=0.17)
    return plant.run_scenario(scn, plant.default_plant_config(seed=4))


class TestInductanceJacobian:
    def test_matches_central_differences(self, grid_data):
        F = np.maximum(grid_data.F, 0.0)
        F[::50] = 0.0  # slack rows, where ln F has no value
        P, L = grid_data.P, grid_data.L
        residual, jacobian = ident._inductance_residual_jacobian(F, P, L)
        init = np.asarray(ident.heuristic_inductance_init(grid_data).p)
        rng = np.random.default_rng(12)
        lo, hi = ident.default_inductance_bounds()
        points = [init, np.asarray(REF.p)] + [
            np.clip(np.asarray(REF.p) * (1.0 + rng.uniform(-0.3, 0.3, 10))
                    + rng.uniform(-0.05, 0.05, 10), lo, hi) for _ in range(22)]
        J_first = None
        for p in points:
            r = residual(p)
            assert np.array_equal(
                r, model.eval_inductance(InductanceParams(tuple(p)), F, P, validate=False) - L)
            J = jacobian(p, r)
            J_first = J if J_first is None else J_first
            assert J is J_first  # filled in place, not reallocated
            ref = central_jacobian(residual, p)
            # central differences err by about 1e-9 of each column's scale
            assert np.all(np.abs(J - ref) <= 1e-7 * np.max(np.abs(ref), axis=0))
            assert np.array_equal(J[F == 0.0, 2:8], np.zeros((np.count_nonzero(F == 0.0), 6)))
        # asked at a point other than the last residual's, it evaluates there
        want = jacobian(points[1], residual(points[1])).copy()
        residual(points[0])
        assert np.array_equal(jacobian(points[1], None), want)

    def test_fit_matches_reference(self, grid_data, monkeypatch):
        init = ident.heuristic_inductance_init(grid_data)
        fits = [ident.fit_inductance(grid_data, init, seed=seed) for seed in range(4)]
        monkeypatch.setattr(ident, "_inductance_residual_jacobian", recomputed_jacobian)
        monkeypatch.setattr(ident, "_trf_minimize", reference_trf_minimize)
        for seed, got in enumerate(fits):
            ref = ident.fit_inductance(grid_data, init, seed=seed)
            assert got.converged and ref.converged
            assert abs(got.rmse - ref.rmse) <= 1e-12 * ref.rmse
            assert np.all(np.abs(np.subtract(got.params.p, ref.params.p))
                          <= 1e-5 * np.abs(ref.params.p))


class TestTrfMinimize:
    def test_step_is_blind_to_column_scale(self):
        # A linear problem whose columns span eight decades: J^T J spans
        # sixteen, past what lstsq resolves on it unscaled (the fit then
        # stopped 7% off), while the Jacobi-scaled system is well posed
        rng = np.random.default_rng(7)
        A = rng.standard_normal((200, 10)) * np.logspace(-4, 4, 10)
        x_true = rng.uniform(0.5, 1.5, 10) / np.logspace(-4, 4, 10)
        b = A @ x_true
        x0 = x_true * (1.0 + rng.uniform(-0.1, 0.1, 10))
        res = ident._trf_minimize(lambda x: A @ x - b, lambda x, r: A, x0,
                                  np.full(10, -1e6), np.full(10, 1e6))
        assert res.converged
        assert np.all(np.abs(res.x - x_true) <= 1e-9 * np.abs(x_true))


def recorded_starts(monkeypatch):
    """Every ``_trf_minimize`` result from here on, in call order."""
    runs = []
    trf = ident._trf_minimize

    def record(*args, **kwargs):
        runs.append(trf(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ident, "_trf_minimize", record)
    return runs


def alternating_pressure(n, stride):
    """n rows of the reference map (noise 0.005 uH) whose pressure is 0.3
    MPa on every ``stride``-th row and cycles through four other levels
    on the rest, so the screen's strided rows hold one pressure level."""
    rng = np.random.default_rng(9)
    i = np.arange(n)
    P = np.where(i % stride == 0, 0.3, np.array([0.0, 0.15, 0.45, 0.6])[(i // stride) % 4])
    F = 4.5 * (0.5 - 0.5 * np.cos(2 * np.pi * i / 997.0))
    L = model.eval_inductance(REF, F, P) + 0.005 * rng.standard_normal(n)
    return Dataset(t=i * 0.01, P=P, L=L, F=F)


class TestScreenedFit:
    @pytest.mark.parametrize("seed", range(4))
    def test_calibration_grid_matches_the_all_rows_fit(self, seed, monkeypatch):
        ds = plant.run_scenario(plant.Scenario.calibration_grid(),
                                plant.default_plant_config(seed=seed))
        assert len(ds) == 25_200
        init = ident.heuristic_inductance_init(ds)
        got = ident.fit_inductance(ds, init, seed=seed)
        assert got.converged
        assert got.extra == {"n_starts": 8, "screen_rows": 4200, "polished": 1}
        monkeypatch.setattr(ident, "SCREEN_ROWS", len(ds))
        starts = recorded_starts(monkeypatch)
        ref = ident.fit_inductance(ds, init, seed=seed)
        assert ref.extra == {"n_starts": 8, "screen_rows": len(ds), "polished": 0}
        assert len(starts) == 8
        assert abs(got.rmse - ref.rmse) <= 1e-12 * ref.rmse
        # each coefficient no farther from the all-rows fit than its farthest start
        spread = np.max(np.abs([run.x - np.asarray(ref.params.p) for run in starts]), axis=0)
        assert np.all(np.abs(np.subtract(got.params.p, ref.params.p)) <= spread)

    def test_short_data_is_the_all_rows_fit(self, monkeypatch):
        ds = synth_inductance(noise=0.01, seed=6, n_f=1020, n_p=8)
        assert ident.SCREEN_ROWS < len(ds) < 2 * ident.SCREEN_ROWS
        got = ident.fit_inductance(ds, REF, seed=1)
        monkeypatch.setattr(ident, "SCREEN_ROWS", 10 * len(ds))
        ref = ident.fit_inductance(ds, REF, seed=1)
        for rep in (got, ref):
            assert rep.extra == {"n_starts": 8, "screen_rows": len(ds), "polished": 0}
        assert got.params == ref.params
        assert (got.rmse, got.iterations, got.cost_log) == (ref.rmse, ref.iterations, ref.cost_log)

    def test_one_pressure_on_the_strided_rows_screens_all_rows(self, monkeypatch):
        n = 2 * ident.SCREEN_ROWS
        ds = alternating_pressure(n, 2)
        assert np.unique(ds.P[::2]).size == 1
        starts = recorded_starts(monkeypatch)
        rep = ident.fit_inductance(ds, REF, seed=0)
        assert rep.converged
        assert rep.extra == {"n_starts": 8, "screen_rows": n, "polished": 0}
        assert len(starts) == 8
        assert rep.rmse <= 0.01

    def test_each_distinct_minimum_is_polished(self, monkeypatch):
        # three starts end in two basins: the first two within 1e-5 of
        # each other (a tie in screen cost, which the first start wins),
        # the third 1% off in every coefficient and lowest in screen cost
        ds = alternating_pressure(3 * ident.SCREEN_ROWS, 2)  # every third row screened
        minima = [np.asarray(REF.p) * f for f in (1.0, 1.0 + 1e-5, 1.01)]
        costs = (3.0, 3.0, 2.0)
        trf = ident._trf_minimize
        calls = []

        def screen_then_polish(residual, jacobian, x0, lo, hi, **kwargs):
            calls.append(np.array(x0))
            if len(calls) <= 3:  # the screen: land on a set minimum
                i = len(calls) - 1
                return ident._TrfResult(x=minima[i], cost=costs[i], cost_log=[],
                                        iterations=1, converged=True)
            return trf(residual, jacobian, x0, lo, hi, **kwargs)

        monkeypatch.setattr(ident, "_trf_minimize", screen_then_polish)
        rep = ident.fit_inductance(ds, REF, n_starts=3, seed=0)
        assert rep.extra == {"n_starts": 3, "screen_rows": ident.SCREEN_ROWS, "polished": 2}
        assert len(calls) == 5
        assert np.array_equal(calls[3], minima[2]) and np.array_equal(calls[4], minima[0])
        assert rep.converged
