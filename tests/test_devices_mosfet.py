"""Unit tests for the behavioural MOSFET model."""

from __future__ import annotations

import math

import pytest

from repro.devices.mosfet import (
    Mosfet,
    MosfetParameters,
    MosfetPolarity,
    MosfetRegion,
)
from repro.devices.technology import UMC65_LIKE, fast_corner, slow_corner


@pytest.fixture
def nmos() -> Mosfet:
    return Mosfet.nmos(20e-6, 100e-9)


@pytest.fixture
def pmos() -> Mosfet:
    return Mosfet.pmos(40e-6, 100e-9)


class TestParameters:
    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            MosfetParameters(width=-1e-6, length=65e-9)
        with pytest.raises(ValueError):
            MosfetParameters(width=1e-6, length=0.0)

    def test_rejects_sub_minimum_length(self):
        with pytest.raises(ValueError):
            MosfetParameters(width=1e-6, length=30e-9)

    def test_polarity_specific_constants(self):
        n = MosfetParameters(1e-6, 65e-9, MosfetPolarity.NMOS)
        p = MosfetParameters(1e-6, 65e-9, MosfetPolarity.PMOS)
        assert n.vth == UMC65_LIKE.vth_n
        assert p.vth == UMC65_LIKE.vth_p
        assert n.u_cox > p.u_cox  # electrons are faster than holes

    def test_gate_capacitance_scales_with_area(self):
        small = MosfetParameters(1e-6, 65e-9)
        large = MosfetParameters(2e-6, 65e-9)
        assert large.gate_capacitance == pytest.approx(2.0 * small.gate_capacitance)


class TestRegions:
    def test_cutoff_below_threshold(self, nmos: Mosfet):
        op = nmos.operating_point(vgs=0.1, vds=0.6)
        assert op.region is MosfetRegion.CUTOFF
        assert op.id == 0.0
        assert op.gm == 0.0
        assert math.isinf(op.ro)

    def test_saturation_at_high_vds(self, nmos: Mosfet):
        op = nmos.operating_point(vgs=0.6, vds=0.6)
        assert op.region is MosfetRegion.SATURATION
        assert op.id > 0.0
        assert op.gm > 0.0
        assert op.gds > 0.0

    def test_triode_at_low_vds(self, nmos: Mosfet):
        op = nmos.operating_point(vgs=0.9, vds=0.05)
        assert op.region is MosfetRegion.TRIODE

    def test_pmos_mirrors_nmos_sign_convention(self, pmos: Mosfet):
        op = pmos.operating_point(vgs=-0.6, vds=-0.6)
        assert op.region is MosfetRegion.SATURATION
        assert op.id > 0.0


class TestMonotonicity:
    def test_current_increases_with_vgs(self, nmos: Mosfet):
        currents = [nmos.drain_current(v, 0.6) for v in (0.4, 0.5, 0.6, 0.7)]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_gm_increases_with_overdrive(self, nmos: Mosfet):
        gms = [nmos.operating_point(v, 0.6).gm for v in (0.45, 0.55, 0.65)]
        assert all(b > a for a, b in zip(gms, gms[1:]))

    def test_current_continuous_across_triode_saturation_boundary(self, nmos):
        vgs = 0.6
        vov = vgs - nmos.params.vth
        i_below = nmos.drain_current(vgs, vov * 0.999)
        i_above = nmos.drain_current(vgs, vov * 1.001)
        assert i_below == pytest.approx(i_above, rel=0.01)

    def test_mobility_degradation_reduces_current(self):
        base = Mosfet.nmos(20e-6, 100e-9)
        id_with_theta = base.drain_current(0.9, 0.6)
        # Square-law value with no degradation would be higher.
        p = base.params
        vov = 0.9 - p.vth
        ideal = 0.5 * p.beta * vov ** 2 * (1.0 + p.lambda_clm * 0.6)
        assert id_with_theta < ideal


class TestDeviceLaw:
    """gm and gds are the derivatives of id, and id is continuous at the
    triode/saturation boundary, for both polarities.

    Triode gm is left out: it omits the theta-derivative of beta_eff, so it
    overstates d id / d vgs there (by 31 % at vgs 0.9 V, vds 0.1 V).
    """

    STEP = 1e-6  # V, central-difference step
    REL = 1e-6

    @staticmethod
    def _device(polarity: str) -> tuple[Mosfet, float]:
        device = getattr(Mosfet, polarity)(20e-6, 100e-9)
        return device, 1.0 if polarity == "nmos" else -1.0

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    @pytest.mark.parametrize("vgs", [0.5, 0.8, 1.1])
    def test_saturation_gm_is_d_id_d_vgs(self, polarity, vgs):
        device, sign = self._device(polarity)
        vds, h = 1.0, self.STEP
        op = device.operating_point(sign * vgs, sign * vds)
        assert op.region is MosfetRegion.SATURATION
        i_plus = device.drain_current(sign * (vgs + h), sign * vds)
        i_minus = device.drain_current(sign * (vgs - h), sign * vds)
        slope = (i_plus - i_minus) / (2 * h)
        assert op.gm == pytest.approx(slope, rel=self.REL)

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    @pytest.mark.parametrize("vgs, vds, region", [
        (0.9, 0.1, MosfetRegion.TRIODE),
        (1.1, 0.05, MosfetRegion.TRIODE),
        (1.1, 0.4, MosfetRegion.TRIODE),
        (0.6, 0.6, MosfetRegion.SATURATION),
        (1.1, 1.0, MosfetRegion.SATURATION),
    ])
    def test_gds_is_d_id_d_vds(self, polarity, vgs, vds, region):
        device, sign = self._device(polarity)
        h = self.STEP
        op = device.operating_point(sign * vgs, sign * vds)
        assert op.region is region
        i_plus = device.drain_current(sign * vgs, sign * (vds + h))
        i_minus = device.drain_current(sign * vgs, sign * (vds - h))
        slope = (i_plus - i_minus) / (2 * h)
        assert op.gds == pytest.approx(slope, rel=self.REL)

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    @pytest.mark.parametrize("vgs", [0.5, 0.8, 1.1])
    def test_current_is_continuous_at_vds_equal_vov(self, polarity, vgs):
        device, sign = self._device(polarity)
        vov = vgs - device.params.vth
        below = math.nextafter(vov, 0.0)
        assert device.operating_point(
            sign * vgs, sign * below).region is MosfetRegion.TRIODE
        assert device.operating_point(
            sign * vgs, sign * vov).region is MosfetRegion.SATURATION
        assert device.drain_current(sign * vgs, sign * below) == \
            pytest.approx(device.drain_current(sign * vgs, sign * vov),
                          rel=1e-12)


class TestSwitchBehaviour:
    def test_on_resistance_decreases_with_width(self):
        narrow = Mosfet.nmos(5e-6, 65e-9)
        wide = Mosfet.nmos(50e-6, 65e-9)
        assert wide.on_resistance(0.6) < narrow.on_resistance(0.6)

    def test_off_switch_has_infinite_resistance(self, nmos: Mosfet):
        assert math.isinf(nmos.on_resistance(0.1))

    def test_pmos_on_resistance_accepts_positive_vds_magnitude(self, pmos: Mosfet):
        # The helper normalises the vds sign for PMOS.
        assert math.isfinite(pmos.on_resistance(-0.6))

    def test_is_on_threshold(self, nmos: Mosfet, pmos: Mosfet):
        assert nmos.is_on(0.6)
        assert not nmos.is_on(0.2)
        assert pmos.is_on(-0.6)
        assert not pmos.is_on(-0.2)

    def test_width_for_resistance_round_trip(self):
        probe = Mosfet.nmos(1e-6, 65e-9)
        width = probe.width_for_resistance(100.0, vgs=0.6)
        sized = Mosfet.nmos(width, 65e-9)
        assert sized.on_resistance(0.6) == pytest.approx(100.0, rel=0.15)

    def test_width_for_resistance_rejects_off_device(self):
        probe = Mosfet.nmos(1e-6, 65e-9)
        with pytest.raises(ValueError):
            probe.width_for_resistance(100.0, vgs=0.1)


class TestBiasSolving:
    def test_vgs_for_current_round_trip(self, nmos: Mosfet):
        target = 1.0e-3
        vgs = nmos.vgs_for_current(target, vds=0.6)
        assert nmos.drain_current(vgs, 0.6) == pytest.approx(target, rel=1e-3)

    def test_vgs_for_current_pmos_sign(self, pmos: Mosfet):
        vgs = pmos.vgs_for_current(0.5e-3, vds=0.6)
        assert vgs < 0.0

    def test_unreachable_current_raises(self):
        tiny = Mosfet.nmos(0.2e-6, 200e-9)
        with pytest.raises(ValueError):
            tiny.vgs_for_current(50e-3, vds=0.6)


class TestNoise:
    def test_thermal_noise_scales_with_gm(self, nmos: Mosfet):
        assert nmos.thermal_noise_current_density(20e-3) > \
            nmos.thermal_noise_current_density(5e-3)

    def test_flicker_noise_decreases_with_frequency(self, nmos: Mosfet):
        assert nmos.flicker_noise_voltage_density(1e3) > \
            nmos.flicker_noise_voltage_density(1e6)

    def test_flicker_corner_positive_for_biased_device(self, nmos: Mosfet):
        corner = nmos.flicker_corner_frequency(gm=15e-3)
        assert corner > 0.0
        assert nmos.flicker_corner_frequency(gm=0.0) == 0.0


class TestCorners:
    def test_corner_shifts_threshold_and_mobility(self):
        nominal = Mosfet.nmos(20e-6, 100e-9)
        slow = Mosfet.nmos(20e-6, 100e-9, slow_corner())
        fast = Mosfet.nmos(20e-6, 100e-9, fast_corner())
        vgs, vds = 0.6, 0.6
        assert slow.drain_current(vgs, vds) < nominal.drain_current(vgs, vds)
        assert fast.drain_current(vgs, vds) > nominal.drain_current(vgs, vds)
