"""Tests for the RF measurement benches: two-tone, compression, NF, gain, filters."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.rf.blocks import BehavioralBlock
from repro.rf.compression import measure_compression_point
from repro.rf.conversion_gain import (
    SWITCHING_FACTOR,
    active_mixer_gain_db,
    passive_mixer_gain_db,
    switching_mixer_voltage_gain,
)
from repro.rf.filters import FirstOrderLowPass, rc_pole_frequency
from repro.rf.network import (
    available_power_dbm,
    balun_output_amplitudes,
    delivered_power_dbm,
    mismatch_loss_db,
    reflection_coefficient,
    return_loss_db,
    vswr,
)
from repro.rf.noise_figure import (
    dsb_from_ssb,
    flicker_corner_from_nf,
    friis_cascade_nf,
    nf_with_flicker,
    noise_factor_from_figure,
    noise_figure_from_factor,
    ssb_from_dsb,
)
from repro.rf.signal import TwoToneSource
from repro.rf.twotone import (
    fit_intercept_point,
    iip2_from_powers,
    iip3_from_powers,
    intermod_frequencies,
    measure_two_tone,
    sweep_two_tone,
)


class TestIntermodFrequencies:
    def test_rf_band_products(self):
        products = intermod_frequencies(2.405e9, 2.407e9)
        assert products["im3_low"] == pytest.approx(2.403e9)
        assert products["im3_high"] == pytest.approx(2.409e9)
        assert products["im2"] == pytest.approx(2e6)

    def test_if_band_products_with_lo(self):
        products = intermod_frequencies(2.405e9, 2.407e9, lo_frequency=2.4e9)
        assert products["fundamental"] == pytest.approx(5e6)
        assert products["fundamental_2"] == pytest.approx(7e6)
        assert products["im3_low"] == pytest.approx(3e6)
        assert products["im3_high"] == pytest.approx(9e6)

    def test_rejects_degenerate_tones(self):
        with pytest.raises(ValueError):
            intermod_frequencies(1e9, 1e9)


class TestInterceptArithmetic:
    def test_single_point_formulas(self):
        assert iip3_from_powers(-30.0, -10.0, -70.0) == pytest.approx(0.0)
        assert iip2_from_powers(-30.0, -10.0, -90.0) == pytest.approx(50.0)

    def test_fit_recovers_known_intercept(self):
        iip3, gain = 2.0, 15.0
        p_in = np.arange(-45.0, -20.0, 2.0)
        fundamental = p_in + gain
        im3 = 3.0 * p_in + (gain - 2.0 * iip3)
        fit = fit_intercept_point(p_in, fundamental, im3)
        assert fit.intercept_input_dbm == pytest.approx(iip3, abs=0.01)
        assert fit.intercept_output_dbm == pytest.approx(iip3 + gain, abs=0.01)

    def test_fit_rejects_short_sweeps(self):
        with pytest.raises(ValueError):
            fit_intercept_point([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])


class TestTwoToneBench:
    def _amplifier_device(self, iip3_dbm: float, gain_db: float = 15.0):
        return BehavioralBlock("dut", gain_db=gain_db, iip3_dbm=iip3_dbm).transfer

    def test_measured_iip3_matches_block_definition(self):
        fs, n = 1.024e9, 8192
        bin_width = fs / n
        source = TwoToneSource(1000 * bin_width, 1010 * bin_width, -40.0)
        device = self._amplifier_device(iip3_dbm=-2.0)
        result = measure_two_tone(device, source, fs, n)
        assert result.iip3_dbm == pytest.approx(-2.0, abs=0.5)
        assert result.gain_db == pytest.approx(15.0, abs=0.2)

    def test_sweep_monotone_and_3to1_slope(self):
        fs, n = 1.024e9, 8192
        bin_width = fs / n
        source = TwoToneSource(1000 * bin_width, 1010 * bin_width, -40.0)
        device = self._amplifier_device(iip3_dbm=0.0)
        powers = np.arange(-45.0, -25.0, 5.0)
        sweep = sweep_two_tone(device, source, powers, fs, n)
        fundamentals = [r.fundamental_output_dbm for r in sweep]
        im3s = [r.im3_output_dbm for r in sweep]
        fund_slope = np.polyfit(powers, fundamentals, 1)[0]
        im3_slope = np.polyfit(powers, im3s, 1)[0]
        assert fund_slope == pytest.approx(1.0, abs=0.05)
        assert im3_slope == pytest.approx(3.0, abs=0.2)


class TestCompressionBench:
    def test_swing_limited_compression_point(self):
        gain_db, swing = 20.0, 1.0
        device = BehavioralBlock("dut", gain_db=gain_db,
                                 output_swing_limit=swing).transfer
        fs, n = 1.024e9, 4096
        frequency = 100 * fs / n
        result = measure_compression_point(device, frequency,
                                           np.arange(-40.0, 0.0, 1.0), fs, n)
        assert result.compression_found
        assert result.small_signal_gain_db == pytest.approx(gain_db, abs=0.2)
        # tanh limiter compresses 1 dB when the ideal output reaches ~0.66 L.
        from repro.units import dbm_from_vpeak
        expected = float(dbm_from_vpeak(0.66 * swing / 10.0 ** (gain_db / 20.0)))
        assert result.input_p1db_dbm == pytest.approx(expected, abs=1.0)

    def test_linear_device_never_compresses(self):
        device = BehavioralBlock("dut", gain_db=10.0).transfer
        fs, n = 1.024e9, 4096
        frequency = 100 * fs / n
        result = measure_compression_point(device, frequency,
                                           np.arange(-40.0, -10.0, 2.0), fs, n)
        assert not result.compression_found
        assert math.isinf(result.input_p1db_dbm)


class TestNoiseFigureAlgebra:
    def test_factor_figure_round_trip(self):
        assert noise_figure_from_factor(noise_factor_from_figure(7.6)) == \
            pytest.approx(7.6)

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            noise_figure_from_factor(0.5)

    def test_friis_reduces_to_first_stage_for_high_gain(self):
        assert friis_cascade_nf([2.0, 20.0], [40.0, 10.0]) == pytest.approx(2.0, abs=0.1)

    def test_nf_with_flicker_rises_below_corner(self):
        nf_high = nf_with_flicker(10.0, 100e3, 10e6)
        nf_low = nf_with_flicker(10.0, 100e3, 10e3)
        assert nf_high == pytest.approx(10.0, abs=0.1)
        assert nf_low > nf_high + 5.0

    def test_flicker_corner_extraction_round_trip(self):
        corner = 80e3
        freqs = np.logspace(3, 8, 400)
        nf = nf_with_flicker(10.0, corner, freqs)
        estimated = flicker_corner_from_nf(freqs, nf)
        assert estimated == pytest.approx(corner, rel=0.35)

    def test_dsb_ssb_conversions(self):
        assert dsb_from_ssb(10.0) == 7.0
        assert ssb_from_dsb(7.0) == 10.0


class TestConversionGainTheory:
    def test_switching_factor_value(self):
        assert SWITCHING_FACTOR == pytest.approx(2.0 / math.pi)

    def test_equation_3_gain(self):
        gain = switching_mixer_voltage_gain(gm=15e-3, load_impedance=3.45e3)
        assert gain == pytest.approx((2.0 / math.pi) * 15e-3 * 3.45e3)

    def test_passive_gain_rolls_off_past_feedback_pole(self):
        low = passive_mixer_gain_db(8.6e-3, 3.7e3, 2.3e-12, 1e6)
        pole = rc_pole_frequency(3.7e3, 2.3e-12)
        at_pole = passive_mixer_gain_db(8.6e-3, 3.7e3, 2.3e-12, pole)
        assert at_pole == pytest.approx(low - 3.0, abs=0.2)

    def test_active_gain_with_and_without_capacitor(self):
        flat = active_mixer_gain_db(15e-3, 3.45e3)
        rolled = active_mixer_gain_db(15e-3, 3.45e3, 2.6e-12, 100e6)
        assert rolled < flat

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            switching_mixer_voltage_gain(-1.0, 1e3)
        with pytest.raises(ValueError):
            switching_mixer_voltage_gain(1e-3, 0.0)


class TestFilters:
    def test_magnitude_at_pole_is_minus_3db(self):
        lp = FirstOrderLowPass(dc_gain=1.0, pole_frequency=1e6)
        assert lp.magnitude_db(1e6) == pytest.approx(-3.0103, abs=0.01)

    def test_from_rc_matches_pole_formula(self):
        lp = FirstOrderLowPass.from_rc(1e3, 1e-9)
        assert lp.pole_frequency == pytest.approx(rc_pole_frequency(1e3, 1e-9))

    def test_apply_attenuates_out_of_band_tone(self):
        from repro.rf.signal import sample_times, sine_wave
        from repro.rf.spectrum import Spectrum

        fs, n = 1.024e9, 8192
        bin_width = fs / n
        lp = FirstOrderLowPass(dc_gain=1.0, pole_frequency=50 * bin_width)
        in_band, out_band = 10 * bin_width, 1000 * bin_width
        times = sample_times(fs, n)
        wave = sine_wave(in_band, 0.1, times) + sine_wave(out_band, 0.1, times)
        spectrum = Spectrum(lp.apply(wave, fs), fs)
        assert spectrum.power_dbm_at(in_band) > spectrum.power_dbm_at(out_band) + 20.0

    def test_group_delay_peaks_at_dc(self):
        lp = FirstOrderLowPass(dc_gain=1.0, pole_frequency=1e6)
        assert lp.group_delay(0.0) > lp.group_delay(10e6)

    # -- time-domain filtering against independent references -----------------

    SAMPLE_RATE = 10.24e9
    #: (pole Hz, samples): the served IF pole on the engine's record; a pole
    #: high enough that the scan needs many blocks; a pole above fs/pi, where
    #: c = -a1 is negative; a record far shorter than the time constant, so
    #: 1 - c^N is small.
    CASES = [(17.7e6, 10240), (3.2e9, 10240), (1e11, 10240), (1e3, 64)]

    @staticmethod
    def _direct_form_loop(lp, samples, sample_rate):
        """The direct-form-II-transposed recursion, one Python step per sample."""
        (b0, b1), (_, a1) = lp._bilinear_coefficients(sample_rate)
        state = float(lp._dc_seed(samples, b0)[0])
        out = []
        for x in samples:
            y = b0 * x + state
            state = b1 * x - a1 * y
            out.append(y)
        return np.array(out)

    @staticmethod
    def _spectral_steady_state(lp, samples, sample_rate):
        """``irfft(rfft(x) * H(e^jw))`` with the bilinear ``H``: the periodic
        steady state computed without any recursion."""
        (b0, b1), (_, a1) = lp._bilinear_coefficients(sample_rate)
        n = samples.shape[-1]
        z = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
        response = (b0 + b1 * z) / (1.0 + a1 * z)
        return np.fft.irfft(np.fft.rfft(samples) * response, n=n)

    @staticmethod
    def _relative_error(got, want):
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    @pytest.mark.parametrize("pole", [pole for pole, _ in CASES])
    def test_apply_matches_direct_form_loop(self, pole):
        lp = FirstOrderLowPass(dc_gain=2.5, pole_frequency=pole)
        samples = np.random.default_rng(3).standard_normal(400)
        want = self._direct_form_loop(lp, samples, self.SAMPLE_RATE)
        got = lp.apply(samples, self.SAMPLE_RATE)
        assert self._relative_error(got, want) <= 1e-13

    @pytest.mark.parametrize("pole", [pole for pole, _ in CASES])
    def test_dc_input_is_settled_from_the_first_sample(self, pole):
        lp = FirstOrderLowPass(dc_gain=2.5, pole_frequency=pole)
        out = lp.apply(np.full(2048, 0.3), self.SAMPLE_RATE)
        np.testing.assert_allclose(out, 0.75, rtol=1e-13)

    @pytest.mark.parametrize("pole,samples", CASES)
    def test_periodic_matches_spectral_steady_state(self, pole, samples):
        lp = FirstOrderLowPass(dc_gain=2.5, pole_frequency=pole)
        record = np.random.default_rng(5).standard_normal(samples)
        want = self._spectral_steady_state(lp, record, self.SAMPLE_RATE)
        got = lp.apply_periodic(record, self.SAMPLE_RATE)
        assert self._relative_error(got, want) <= 1e-12

    @pytest.mark.parametrize("pole,samples", CASES[:3])
    def test_periodic_matches_prefixed_apply(self, pole, samples):
        """One record of warm-up settles these poles below double precision."""
        lp = FirstOrderLowPass(dc_gain=2.5, pole_frequency=pole)
        record = np.random.default_rng(7).standard_normal(samples)
        prefixed = lp.apply(np.concatenate([record, record]), self.SAMPLE_RATE)
        got = lp.apply_periodic(record, self.SAMPLE_RATE)
        assert self._relative_error(got, prefixed[samples:]) <= 1e-12

    @pytest.mark.parametrize("pole,samples", CASES)
    def test_block_rows_equal_solo_calls_bitwise(self, pole, samples):
        lp = FirstOrderLowPass(dc_gain=2.5, pole_frequency=pole)
        block = np.random.default_rng(9).standard_normal((3, samples))
        for method in (lp.apply, lp.apply_periodic):
            batched = method(block, self.SAMPLE_RATE)
            for row, solo in zip(batched, block):
                np.testing.assert_array_equal(row, method(solo,
                                                          self.SAMPLE_RATE))

    def test_scan_blocks_stay_finite(self):
        """A fast pole splits the scan into many rescaled blocks."""
        from repro.rf.filters import _scan_powers

        lp = FirstOrderLowPass(dc_gain=1.0, pole_frequency=3.2e9)
        (_, a1) = lp._bilinear_coefficients(self.SAMPLE_RATE)[1]
        falling, rising = _scan_powers(-a1, 10240)
        assert 1 < falling.size < 10240 // 10
        assert np.all(np.isfinite(falling)) and falling.max() <= 2.0 ** 500
        assert rising.min() >= 2.0 ** -500


class TestNetwork:
    def test_matched_load_has_no_reflection(self):
        assert abs(reflection_coefficient(50.0)) == pytest.approx(0.0)
        assert math.isinf(return_loss_db(50.0))
        assert vswr(50.0) == pytest.approx(1.0)
        assert mismatch_loss_db(50.0) == pytest.approx(0.0)

    def test_open_and_short_fully_reflect(self):
        assert abs(reflection_coefficient(1e12)) == pytest.approx(1.0, abs=1e-6)
        assert abs(reflection_coefficient(0.0)) == pytest.approx(1.0)

    def test_vswr_of_2to1_mismatch(self):
        assert vswr(100.0) == pytest.approx(2.0)

    def test_available_vs_delivered_power(self):
        available = available_power_dbm(1.0)
        delivered_matched = delivered_power_dbm(1.0, 50.0)
        delivered_mismatched = delivered_power_dbm(1.0, 200.0)
        assert delivered_matched == pytest.approx(available, abs=1e-9)
        assert delivered_mismatched < available

    def test_balun_split(self):
        plus, minus = balun_output_amplitudes(1.0, loss_db=0.0, imbalance_db=0.0)
        assert plus == pytest.approx(0.5)
        assert minus == pytest.approx(0.5)
        lossy_plus, _ = balun_output_amplitudes(1.0, loss_db=6.02)
        assert lossy_plus == pytest.approx(0.25, rel=1e-3)
