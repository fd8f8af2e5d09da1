import numpy as np
import pytest
from scipy.signal import butter, sosfilt, sosfilt_zi, sosfreqz

from coilsense import signal as sig
from coilsense.signal import FilterSpec, InvalidFilterSpecError


def db(h):
    return 20.0 * np.log10(np.abs(h))


def step(st, x):
    """One sample through ``st``."""
    return sig.run(st, [x])[0]


def response(st, freqs_hz, fs):
    """Complex response of a designed cascade at ``freqs_hz``."""
    return sosfreqz(st.sos, worN=np.asarray(freqs_hz, dtype=float), fs=fs)[1]


class TestDesign:
    def test_unity_dc_gain(self):
        st = sig.design(FilterSpec(order=3, cutoff_hz=10), 100)
        h0 = response(st, [0.0], 100)[0]
        assert abs(h0) == pytest.approx(1.0, abs=1e-12)

    def test_half_power_at_cutoff(self):
        st = sig.design(FilterSpec(order=3, cutoff_hz=10), 100)
        mag_db = db(response(st, [10.0], 100)[0])
        assert mag_db == pytest.approx(-3.0103, abs=0.1)

    def test_decade_attenuation(self):
        st = sig.design(FilterSpec(order=3, cutoff_hz=10), 1000)
        assert db(response(st, [100.0], 1000)[0]) <= -55.0

    def test_invalid_specs(self):
        with pytest.raises(InvalidFilterSpecError):
            sig.design(FilterSpec(order=3, cutoff_hz=50), 100)  # at Nyquist
        with pytest.raises(InvalidFilterSpecError):
            FilterSpec(order=0, cutoff_hz=10)
        with pytest.raises(InvalidFilterSpecError):
            FilterSpec(order=sig.MAX_ORDER + 1, cutoff_hz=10)
        with pytest.raises(InvalidFilterSpecError):
            FilterSpec(order=3, cutoff_hz=-1)

    def test_stable_for_valid_specs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            fs = rng.uniform(50, 2000)
            fc = rng.uniform(0.01, 0.49) * fs
            order = int(rng.integers(1, 8))
            st = sig.design(FilterSpec(order=order, cutoff_hz=fc), fs)
            assert sig.is_stable(st)

    @pytest.mark.parametrize("rate", [10.0, 100.0, 333.3, 1000.0, 44100.0, 50000.0])
    def test_equals_scipy_butter_bit_for_bit(self, rate):
        for order in range(1, sig.MAX_ORDER + 1):
            for frac in np.geomspace(0.001, 0.499, 15):
                spec = FilterSpec(order, frac * rate)
                expected = butter(order, spec.cutoff_hz, fs=rate, output="sos")
                assert np.array_equal(sig.design(spec, rate).sos, expected), (spec, rate)

    def test_random_specs_equal_scipy_butter_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            rate = float(rng.uniform(5.0, 1e5))
            spec = FilterSpec(int(rng.integers(1, sig.MAX_ORDER + 1)),
                              float(rng.uniform(1e-4, 0.4999)) * rate)
            expected = butter(spec.order, spec.cutoff_hz, fs=rate, output="sos")
            assert np.array_equal(sig.design(spec, rate).sos, expected), (spec, rate)

    def test_monotone_magnitude(self):
        st = sig.design(FilterSpec(order=3, cutoff_hz=10), 100)
        mags = np.abs(response(st, np.linspace(0.0, 49.99, 400), 100))
        assert np.all(np.diff(mags) <= 1e-12)


class TestStep:
    def test_dc_tracking(self):
        st = sig.design(FilterSpec(3, 10), 100)
        y = 0.0
        for _ in range(1000):
            y = step(st, 1.0)
        assert y == pytest.approx(1.0, abs=1e-9)

    def test_impulse_sum_equals_dc_gain(self):
        st = sig.design(FilterSpec(3, 10), 100)
        total = step(st, 1.0)
        for _ in range(4000):
            total += step(st, 0.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_sine_at_cutoff_amplitude(self):
        fs, fc = 100.0, 10.0
        st = sig.design(FilterSpec(3, fc), fs)
        n = int(20 * fs / fc)
        t = np.arange(n) / fs
        y = np.array([step(st, v) for v in np.sin(2 * np.pi * fc * t)])
        # amplitude from a sine/cosine regression over the settled tail
        tail = slice(n // 2, None)
        A = np.column_stack([np.sin(2 * np.pi * fc * t[tail]),
                             np.cos(2 * np.pi * fc * t[tail])])
        coef, _, _, _ = np.linalg.lstsq(A, y[tail], rcond=None)
        amp = float(np.hypot(*coef))
        assert amp == pytest.approx(0.7079, rel=0.01)

    def test_streaming_equals_batch_bitexact(self):
        # a stream cut into calls at random points, empty and 1-sample
        # pieces included, runs the same transposed direct form II
        # recursion as scipy's batch sosfilt, operation for operation: the
        # outputs and the delay line at the end, for every order, odd and
        # even, from a zero and from a primed delay line
        rng = np.random.default_rng(4)
        for order in range(1, sig.MAX_ORDER + 1):
            fs = float(rng.uniform(50.0, 2000.0))
            st = sig.design(FilterSpec(order, float(rng.uniform(0.01, 0.45)) * fs), fs)
            for start, xs in ((0.0, rng.standard_normal(300)),
                              (3.0, 3.0 + rng.standard_normal(300))):
                st = sig.prime(st, start)
                batch, zf = sosfilt(st.sos, xs, zi=st.zi)
                cuts = sorted([0, 0, 1, 2, 2, 299, 300, 300]
                              + rng.integers(0, 301, 10).tolist())
                out = []
                for a, b in zip(cuts, cuts[1:]):
                    out += sig.run(st, xs[a:b].tolist())
                assert np.array_equal(batch, out) and np.array_equal(zf, st.zi), order
        assert all(type(v) is float for v in sig.run(st, [np.float64(1.0), 2]))

    def test_copy_forks_the_delay_line(self):
        st = sig.prime(sig.design(FilterSpec(3, 10), 100), 2.0)
        fork = st.copy()
        assert np.array_equal(fork.sos, st.sos) and np.array_equal(fork.zi, st.zi)
        step(fork, 5.0)
        assert not np.array_equal(fork.zi, st.zi)
        assert step(st, 2.0) == pytest.approx(2.0, abs=1e-9)

    def test_sos_is_a_fresh_array(self):
        # run reads the sections cached at construction, so writing to
        # a returned array must change neither them nor the next read
        st = sig.design(FilterSpec(3, 10), 100)
        twin = st.copy()
        sos = st.sos
        sos[:] = 0.0
        assert np.array_equal(st.sos, twin.sos) and st.sos is not st.sos
        assert st.sos.flags.writeable
        assert step(st, 1.5) == step(twin, 1.5)

    def test_prime_equals_scipy_sosfilt_zi_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for order in range(1, sig.MAX_ORDER + 1):
            for rate in (20.0, 100.0, 1000.0, 48000.0, 12345.6):
                for frac in (0.001, 0.01, 0.1, 0.25, 0.4, 0.499):
                    st = sig.design(FilterSpec(order, frac * rate), rate)
                    value = float(rng.uniform(-10.0, 10.0))
                    expected = sosfilt_zi(st.sos) * value
                    assert np.array_equal(sig.prime(st, value).zi, expected), (order, rate, frac)

    def test_prime_removes_startup_transient(self):
        st = sig.design(FilterSpec(3, 10), 100)
        sig.prime(st, 2.5)
        for _ in range(10):
            assert step(st, 2.5) == pytest.approx(2.5, abs=1e-9)
