"""Tests for the reconfigurable mixer itself, its config and the front end."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import (
    MixerDesign,
    MixerMode,
    PAPER_TARGETS_ACTIVE,
    PAPER_TARGETS_PASSIVE,
    default_design,
    paper_targets,
)
from repro.core.frontend import (
    Balun,
    LocalOscillator,
    LowNoiseAmplifier,
    WidebandReceiverFrontEnd,
)
from repro.core.reconfigurable_mixer import ReconfigurableMixer


class TestConfig:
    def test_default_design_validates(self):
        design = default_design()
        assert design.vdd == pytest.approx(1.2)
        assert design.rf_frequency == pytest.approx(2.405e9)

    def test_mode_vlogic_levels(self):
        assert MixerMode.ACTIVE.vlogic == 1
        assert MixerMode.PASSIVE.vlogic == 0

    def test_invalid_designs_rejected(self):
        with pytest.raises(ValueError):
            MixerDesign(if_frequency=-1.0)
        with pytest.raises(ValueError):
            MixerDesign(if_frequency=3e9)  # IF above LO
        with pytest.raises(ValueError):
            MixerDesign(tca_gm=0.0)
        with pytest.raises(ValueError):
            MixerDesign(degeneration_resistance=-5.0)

    def test_with_lo_and_with_if(self, design):
        retuned = design.with_lo(5.0e9).with_if(10e6)
        assert retuned.lo_frequency == pytest.approx(5.0e9)
        assert retuned.if_frequency == pytest.approx(10e6)
        # The original is unchanged (frozen dataclass semantics).
        assert design.lo_frequency == pytest.approx(2.4e9)

    def test_gain_setting_scales_both_loads(self, design):
        scaled = design.with_gain_setting(2.0)
        assert scaled.load_resistance == pytest.approx(2.0 * design.load_resistance)
        assert scaled.feedback_resistance == pytest.approx(
            2.0 * design.feedback_resistance)
        with pytest.raises(ValueError):
            design.with_gain_setting(0.0)

    def test_paper_targets_lookup(self):
        assert paper_targets(MixerMode.ACTIVE) is PAPER_TARGETS_ACTIVE
        assert paper_targets(MixerMode.PASSIVE) is PAPER_TARGETS_PASSIVE


class TestModeControl:
    def test_set_mode_and_reconfigure(self, design):
        mixer = ReconfigurableMixer(design, MixerMode.ACTIVE)
        assert mixer.vlogic == 1
        new_mode = mixer.reconfigure()
        assert new_mode is MixerMode.PASSIVE
        assert mixer.mode is MixerMode.PASSIVE
        assert mixer.vlogic == 0
        mixer.set_mode(MixerMode.ACTIVE)
        assert mixer.mode is MixerMode.ACTIVE
        with pytest.raises(TypeError):
            mixer.set_mode("active")  # type: ignore[arg-type]

    def test_mode_selects_degeneration(self, design):
        active = ReconfigurableMixer(design, MixerMode.ACTIVE)
        passive = ReconfigurableMixer(design, MixerMode.PASSIVE)
        assert active.transconductor.degeneration_resistance == 0.0
        assert passive.transconductor.degeneration_resistance == \
            design.degeneration_resistance


class TestHeadlineSpecs:
    def test_conversion_gain_matches_paper(self, active_mixer, passive_mixer):
        assert active_mixer.conversion_gain_db() == pytest.approx(
            PAPER_TARGETS_ACTIVE.conversion_gain_db, abs=1.0)
        assert passive_mixer.conversion_gain_db() == pytest.approx(
            PAPER_TARGETS_PASSIVE.conversion_gain_db, abs=1.0)

    def test_noise_figure_matches_paper(self, active_mixer, passive_mixer):
        assert active_mixer.noise_figure_db() == pytest.approx(
            PAPER_TARGETS_ACTIVE.noise_figure_db, abs=1.0)
        assert passive_mixer.noise_figure_db() == pytest.approx(
            PAPER_TARGETS_PASSIVE.noise_figure_db, abs=1.0)

    def test_iip3_matches_paper(self, active_mixer, passive_mixer):
        assert active_mixer.iip3_dbm() == pytest.approx(
            PAPER_TARGETS_ACTIVE.iip3_dbm, abs=2.0)
        assert passive_mixer.iip3_dbm() == pytest.approx(
            PAPER_TARGETS_PASSIVE.iip3_dbm, abs=2.0)

    def test_power_matches_paper(self, active_mixer, passive_mixer):
        assert active_mixer.power_mw() == pytest.approx(
            PAPER_TARGETS_ACTIVE.power_mw, abs=0.05)
        assert passive_mixer.power_mw() == pytest.approx(
            PAPER_TARGETS_PASSIVE.power_mw, abs=0.05)

    def test_trade_off_directions(self, active_mixer, passive_mixer):
        # Fig. 1 of the paper: active wins gain and NF, passive wins linearity.
        assert active_mixer.conversion_gain_db() > passive_mixer.conversion_gain_db()
        assert active_mixer.noise_figure_db() < passive_mixer.noise_figure_db()
        assert passive_mixer.iip3_dbm() > active_mixer.iip3_dbm() + 10.0
        assert passive_mixer.p1db_dbm() > active_mixer.p1db_dbm()

    def test_iip2_above_paper_floor(self, active_mixer, passive_mixer):
        assert active_mixer.iip2_dbm() > 65.0
        assert passive_mixer.iip2_dbm() > 65.0

    def test_band_edges_match_paper(self, active_mixer, passive_mixer):
        a_low, a_high = active_mixer.band_edges()
        p_low, p_high = passive_mixer.band_edges()
        assert a_low == pytest.approx(1.0e9, rel=0.15)
        assert a_high == pytest.approx(5.5e9, rel=0.15)
        assert p_low == pytest.approx(0.5e9, rel=0.15)
        assert p_high == pytest.approx(5.1e9, rel=0.15)

    def test_flicker_corner_claim(self, passive_mixer, active_mixer):
        assert passive_mixer.flicker_corner_hz() < 100e3
        assert active_mixer.flicker_corner_hz() > passive_mixer.flicker_corner_hz()

    def test_specs_aggregate_consistency(self, active_mixer):
        specs = active_mixer.specs()
        assert specs.conversion_gain_db == pytest.approx(
            active_mixer.conversion_gain_db())
        assert specs.mode is MixerMode.ACTIVE
        row = specs.as_table_row()
        assert row["design"] == "This work (active)"
        assert isinstance(row["gain_db"], float)
        low_ghz, high_ghz = specs.bandwidth_ghz
        assert low_ghz < high_ghz


class TestFrequencyBehaviour:
    def test_gain_rolls_off_outside_band(self, active_mixer):
        in_band = active_mixer.conversion_gain_db(2.45e9)
        below = active_mixer.conversion_gain_db(0.2e9)
        above = active_mixer.conversion_gain_db(9e9)
        assert below < in_band - 6.0
        assert above < in_band - 3.0

    def test_gain_rolls_off_at_high_if(self, passive_mixer):
        assert passive_mixer.conversion_gain_db(2.45e9, 80e6) < \
            passive_mixer.conversion_gain_db(2.45e9, 1e6) - 6.0

    def test_noise_figure_rises_at_low_if(self, passive_mixer):
        assert passive_mixer.noise_figure_db(5e3) > \
            passive_mixer.noise_figure_db(5e6) + 3.0

    def test_invalid_frequencies_rejected(self, active_mixer):
        with pytest.raises(ValueError):
            active_mixer.conversion_gain_db(-1.0)
        with pytest.raises(ValueError):
            active_mixer.conversion_gain_db(2.4e9, 0.0)


class TestDesignKnobs:
    def test_gain_scales_with_load_setting(self, design):
        # Compare the in-band peak gains: at the nominal 5 MHz IF the doubled
        # load also moves the IF pole, which is a separate (real) effect.
        base = ReconfigurableMixer(design, MixerMode.ACTIVE).peak_conversion_gain_db()
        doubled = ReconfigurableMixer(design.with_gain_setting(2.0),
                                      MixerMode.ACTIVE).peak_conversion_gain_db()
        assert doubled == pytest.approx(base + 6.0, abs=0.1)

    def test_degeneration_improves_passive_linearity(self, design):
        more_degenerated = replace(design, degeneration_resistance=150.0)
        base = ReconfigurableMixer(design, MixerMode.PASSIVE)
        linear = ReconfigurableMixer(more_degenerated, MixerMode.PASSIVE)
        assert linear.gm_stage_iip3_dbm() > base.gm_stage_iip3_dbm()
        assert linear.conversion_gain_db() < base.conversion_gain_db()

    def test_output_stage_only_limits_active_mode(self, design):
        # With the passive quad term removed, the passive composite is the
        # Gm stage's intercept alone; a stronger output network raises the
        # active composite and leaves the passive one untouched.
        no_quad = replace(design, passive_quad_iip3_dbm=math.inf)
        stronger = replace(no_quad, active_output_ip3_factor=2.0
                           * design.active_output_ip3_factor)
        active = ReconfigurableMixer(no_quad, MixerMode.ACTIVE)
        passive = ReconfigurableMixer(no_quad, MixerMode.PASSIVE)
        assert active.iip3_dbm() < active.gm_stage_iip3_dbm()
        assert passive.iip3_dbm() == pytest.approx(
            passive.gm_stage_iip3_dbm(), abs=1e-9)
        assert ReconfigurableMixer(stronger, MixerMode.ACTIVE).iip3_dbm() \
            > active.iip3_dbm()
        assert ReconfigurableMixer(stronger, MixerMode.PASSIVE).iip3_dbm() \
            == passive.iip3_dbm()


class TestFrontEnd:
    def test_cascade_gain_is_sum_of_blocks(self, design):
        front_end = WidebandReceiverFrontEnd(design, MixerMode.ACTIVE)
        cascade = front_end.cascade(2.45e9)
        blocks = front_end.blocks(2.45e9)
        assert cascade.gain_db == pytest.approx(sum(b.gain_db for b in blocks))

    def test_lna_improves_system_noise_figure(self, design):
        with_lna = WidebandReceiverFrontEnd(design, MixerMode.PASSIVE,
                                            include_lna=True)
        without_lna = WidebandReceiverFrontEnd(design, MixerMode.PASSIVE,
                                               include_lna=False)
        assert with_lna.cascade().nf_db < without_lna.cascade().nf_db - 3.0

    def test_mode_switching_through_front_end(self, design):
        front_end = WidebandReceiverFrontEnd(design, MixerMode.ACTIVE)
        active_gain = front_end.cascade().gain_db
        front_end.set_mode(MixerMode.PASSIVE)
        passive_gain = front_end.cascade().gain_db
        assert front_end.mode is MixerMode.PASSIVE
        assert active_gain > passive_gain

    def test_sensitivity_improves_with_narrow_channels(self, design):
        front_end = WidebandReceiverFrontEnd(design, MixerMode.ACTIVE)
        narrow = front_end.sensitivity_dbm(1e6, 8.0)
        wide = front_end.sensitivity_dbm(20e6, 8.0)
        assert narrow < wide  # lower (more negative) is better

    def test_lna_band_rolloff(self):
        lna = LowNoiseAmplifier()
        assert lna.gain_at(2.4e9) > lna.gain_at(0.1e9)
        assert lna.gain_at(2.4e9) > lna.gain_at(20e9)

    def test_balun_split_and_block(self):
        balun = Balun(insertion_loss_db=1.0)
        block = balun.as_block()
        assert block.gain_db == pytest.approx(-1.0)
        plus, minus = balun.split(np.array([1.0]))
        assert plus[0] > 0.0 > minus[0]

    def test_lo_reciprocal_mixing(self):
        lo = LocalOscillator()
        floor = lo.reciprocal_mixing_floor_dbm(blocker_dbm=-30.0, offset_hz=1e6,
                                               channel_bandwidth_hz=1e6)
        assert floor == pytest.approx(-30.0 - 110.0 + 60.0)

    def test_total_power_includes_lna(self, design):
        with_lna = WidebandReceiverFrontEnd(design, MixerMode.ACTIVE,
                                            include_lna=True)
        without = WidebandReceiverFrontEnd(design, MixerMode.ACTIVE,
                                           include_lna=False)
        assert with_lna.total_power_mw() > without.total_power_mw()
