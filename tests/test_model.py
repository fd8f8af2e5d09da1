import math

import numpy as np
import pytest
from scipy.optimize import brentq

from coilsense import model
from coilsense.model import (DomainError, DynamicParams, EnvelopeError,
                             InductanceParams, OperatingEnvelope)

DYN = DynamicParams(k=38.6, x0=0.100, c=1.6310)


def lam(l1, l2, l3, l4, l5):
    """Pressure-independent coefficient set (slopes zero)."""
    return InductanceParams((0.0, l1, 0.0, l2, 0.0, l3, 0.0, l4, 0.0, l5))


class TestDynamicForce:
    def test_slack_zero(self):
        assert model.eval_dynamic_force(DYN, 0.100, 0.0) == 0.0

    def test_hand_values(self):
        # 38.6*0.1 + 1.6310*0.2 = 3.86 + 0.3262
        assert model.eval_dynamic_force(DYN, 0.200, 0.2) == pytest.approx(4.1862, abs=1e-12)
        assert model.eval_dynamic_force(DYN, 0.100, 0.5) == pytest.approx(0.8155, abs=1e-12)

    def test_affine_in_x(self):
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        for _ in range(50):
            x, P = rng.uniform(0.07, 0.18), rng.uniform(0, 0.65)
            lhs = model.eval_dynamic_force(DYN, x, P) - model.eval_dynamic_force(DYN, DYN.x0, P)
            # one rounding of the cP cancellation is the only slack
            assert abs(lhs - DYN.k * (x - DYN.x0)) <= 4 * eps * max(1.0, abs(lhs))

    def test_invert_examples(self):
        assert model.invert_dynamic_length(DYN, 0.0, 0.0) == pytest.approx(0.100, abs=1e-15)
        assert model.invert_dynamic_length(DYN, 4.1862, 0.2) == pytest.approx(0.200, abs=1e-12)

    def test_invert_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x, P = rng.uniform(0.07, 0.18), rng.uniform(0, 0.65)
            back = model.invert_dynamic_length(DYN, model.eval_dynamic_force(DYN, x, P), P)
            assert abs(back - x) <= 1e-12 * abs(x)

    def test_degenerate_stiffness(self):
        tiny = DynamicParams(k=1e-12, x0=0.1, c=1.0)
        with pytest.raises(model.DegenerateModelError):
            model.invert_dynamic_length(tiny, 1.0, 0.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DynamicParams(k=-1.0, x0=0.1, c=1.0)
        with pytest.raises(ValueError):
            DynamicParams(k=1.0, x0=0.1, c=math.nan)


class TestCoeffs:
    def test_zero_pressure_gives_intercepts(self):
        p = (1.0, 0.5, 2.0, 1.2, -1.0, -0.3, 0.5, 0.9, 3.0, 4.8)
        co = model.eval_coeffs(InductanceParams(p), 0.0)
        assert co == (0.5, 1.2, -0.3, 0.9, 4.8)

    def test_constant_offset_only(self):
        p = (0.0,) * 9 + (0.5,)
        for P in (0.0, 0.3, 0.65):
            co = model.eval_coeffs(InductanceParams(p), P, validate=False)
            assert co == (0.0, 0.0, 0.0, 0.0, 0.5)
        with pytest.raises(EnvelopeError):
            model.eval_coeffs(InductanceParams(p), 0.0)  # lambda2 = 0 not evaluable

    def test_hand_value(self):
        p = (1, 0, 0, 1, 0, 0, 0, 1, 0, 2)
        co = model.eval_coeffs(InductanceParams(p), 0.3)
        assert co == (0.3, 1.0, 0.0, 1.0, 2.0)

    def test_ten_entries_required(self):
        with pytest.raises(ValueError):
            InductanceParams((1.0, 2.0))
        with pytest.raises(ValueError):
            InductanceParams((math.inf,) * 10)


class TestInductance:
    def test_zero_force_gives_offset(self):
        params = InductanceParams((0.1, 0.6, 0.2, 1.3, -0.15, -0.55, 0.3, 1.0, 0.5, 4.75))
        for P in (0.0, 0.2, 0.65):
            co = model.eval_coeffs(params, P)
            assert model.eval_inductance(params, 0.0, P) == co[4]

    def test_hand_values(self):
        assert model.eval_inductance(lam(2, 1, 0, 1, 1), 3.0, 0.0) == pytest.approx(7.0, abs=1e-12)
        assert model.eval_inductance(lam(1, 2, -1, 1, 0), 1.0, 0.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12)

    def test_negative_force_rejected(self):
        with pytest.raises(DomainError):
            model.eval_inductance(lam(1, 1, -1, 1, 0), -0.5, 0.0)

    def test_vectorized_matches_scalar(self):
        params = InductanceParams((0.1, 0.6, 0.2, 1.3, -0.15, -0.55, 0.3, 1.0, 0.5, 4.75))
        F = np.linspace(0, 5, 37)  # F[0] = 0 is on the boundary of the domain
        P = np.linspace(0, 0.65, 37)
        vec = model.eval_inductance(params, F, 0.3)
        vec_P = model.eval_inductance(params, F, P)
        slope = model.d_inductance_dF(params, F[1:], P[1:])
        for i, f in enumerate(F):
            assert vec[i] == model.eval_inductance(params, float(f), 0.3)
            for scalar in (float, np.float64, np.array):
                L = model.eval_inductance(params, scalar(f), scalar(P[i]))
                assert type(L) is float and L == vec_P[i]
                if i:
                    g = model.d_inductance_dF(params, scalar(f), scalar(P[i]))
                    assert type(g) is float and g == slope[i - 1]
        with pytest.raises(DomainError):
            model.eval_inductance(params, -0.1, 0.3)
        with pytest.raises(DomainError):
            model.d_inductance_dF(params, 0.0, 0.3)
        for P_bad in (-4.0, -7.0):  # lambda4 <= 0, then lambda2 <= 0 too
            with pytest.raises(EnvelopeError):
                model.eval_inductance(params, 1.0, P_bad)
            with pytest.raises(EnvelopeError):
                model.d_inductance_dF(params, 1.0, P_bad)


class TestSensitivity:
    def test_linear_case(self):
        assert model.d_inductance_dF(lam(2, 1, 0, 1, 1), 3.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_force_rejected(self):
        with pytest.raises(DomainError):
            model.d_inductance_dF(lam(1, 1, -1, 1, 0), 0.0, 0.0)

    def test_matches_central_differences(self):
        params = InductanceParams((0.1, 0.6, 0.2, 1.3, -0.15, -0.55, 0.3, 1.0, 0.5, 4.75))
        F = np.linspace(0.01, 5.0, 20)
        h = np.maximum(1e-6, 1e-6 * F)
        for P in np.linspace(0.0, 0.65, 20):
            a = model.d_inductance_dF(params, F, P)
            fd = (model.eval_inductance(params, F + h, P)
                  - model.eval_inductance(params, F - h, P)) / (2 * h)
            assert np.all(np.abs(a - fd) <= 1e-6 * np.abs(a))

    def test_zero_at_peak(self):
        params = InductanceParams((0.1, 0.6, 0.2, 1.3, -0.15, -0.55, 0.3, 1.0, 0.5, 4.75))
        for P in (0.0, 0.3, 0.65):
            co = model.eval_coeffs(params, P)
            # independent root of the bracketed factor l2 + l3*l4*F**l4
            f_star = brentq(lambda F: co[1] + co[2] * co[3] * F ** co[3],
                            1e-3, 10.0, xtol=1e-14)
            assert f_star == pytest.approx(model.peak_force(params, P), rel=1e-10)
            assert abs(model.d_inductance_dF(params, f_star, P)) <= 1e-9

    def test_single_interior_maximum(self):
        params = InductanceParams((0.1, 0.6, 0.2, 1.3, -0.15, -0.55, 0.3, 1.0, 0.5, 4.75))
        F = np.linspace(1e-3, 5.0, 2000)
        for P in (0.0, 0.3, 0.65):
            signs = np.sign(model.d_inductance_dF(params, F, P))
            changes = np.count_nonzero(np.diff(signs) != 0)
            assert changes == 1

    def test_peak_force_requires_negative_decay(self):
        with pytest.raises(DomainError):
            model.peak_force(lam(1, 1, 0.2, 1, 0), 0.0)

    @pytest.mark.parametrize("l3", [-5e-324, -1e-300])
    def test_peak_force_beyond_the_floats_is_a_domain_error(self, l3):
        # -l3*l4 underflows to 0 (a zero division), or the power overflows
        with pytest.raises(DomainError, match="beyond the floats"):
            model.peak_force(lam(1, 1, l3, 0.5, 0), 0.0)


class TestEnvelope:
    def test_validation(self):
        with pytest.raises(ValueError):
            OperatingEnvelope(P_min=0.5, P_max=0.1, F_min=0, F_max=1,
                              x_min=0, x_max=1, L_min=0, L_max=1)
        with pytest.raises(ValueError):
            OperatingEnvelope(P_min=0, P_max=1, F_min=-1, F_max=1,
                              x_min=0, x_max=1, L_min=0, L_max=1)

    def test_checks(self):
        env = OperatingEnvelope(P_min=0, P_max=0.65, F_min=0, F_max=5,
                                x_min=0.07, x_max=0.18, L_min=4.5, L_max=5.8)
        env.check_P(0.3)
        with pytest.raises(EnvelopeError):
            env.check_P(0.7)
        assert env.F_span == 5.0


class TestParameterFiles:
    def test_dynamic_round_trip(self, tmp_path):
        path = str(tmp_path / "dyn.json")
        model.save_dynamic_params(DYN, path)
        back = model.load_dynamic_params(path)
        assert back == DYN
        text = open(path).read()
        for field in ('"k"', '"x0"', '"c"'):
            assert field in text

    def test_inductance_round_trip(self, tmp_path):
        params = InductanceParams((0.1, 0.6, 0.2, 1.3, -0.15, -0.55, 0.3, 1.0, 0.5, 4.75))
        path = str(tmp_path / "ind.json")
        model.save_inductance_params(params, path)
        assert model.load_inductance_params(path) == params
        assert '"p"' in open(path).read()

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"k": 1.0, "x0": 0.1}')
        with pytest.raises(ValueError, match="c"):
            model.load_dynamic_params(str(path))
