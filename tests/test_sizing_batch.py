"""Sizing-solver suite: closed form, bisection fallback, batched block.

:func:`~repro.core.transconductance.gm_device_width` sizes the Gm device in
closed form from the saturated gm/Id wherever that root is the only one,
and falls back to the width bisection everywhere else.  This suite pins
the closed form against the retained bisection (1e-12 relative inside its
domain, bitwise outside it), the unchanged unreachable-target errors, the
device-evaluation work a cold request now does, the batched
:func:`~repro.core.transconductance.solve_widths` entry point (bit-identical
to the lazy scalar solve, since both call the same function), and the
:class:`MosfetArray` device model against the scalar :class:`Mosfet`.  It
also carries the regression test for the degenerated-bias fixed-point loop,
which raises instead of silently returning a stale current when it fails
to converge.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MixerDesign, MixerMode
from repro.core.reconfigurable_mixer import ReconfigurableMixer
from repro.api import MixerService, SpecRequest
from repro.core.transconductance import (
    TransconductanceAmplifier,
    _bisect_width,
    batched_sizing_solve_count,
    gm_device_width,
    sizing_solve_count,
    solve_widths,
)
from repro.devices.mosfet import Mosfet, MosfetArray, MosfetRegion
from repro.devices.technology import UMC65_LIKE, fast_corner, slow_corner
from repro.sweep.montecarlo import DeviceSpread, sample_design

# Sizing solves are deterministic but not instant; keep example counts sane.
COMMON_SETTINGS = settings(max_examples=25, deadline=None)

#: Multiplicative perturbations of the sizing-relevant design knobs — wide
#: enough to move the solved width by decades, narrow enough to stay
#: reachable within the width bracket.
_SCALES = st.tuples(st.floats(min_value=0.5, max_value=1.6),
                    st.floats(min_value=0.6, max_value=1.5))


def _perturbed(design: MixerDesign, gm_scale: float,
               bias_scale: float) -> MixerDesign:
    return replace(design, tca_gm=design.tca_gm * gm_scale,
                   tca_bias_current=design.tca_bias_current * bias_scale)


def _scalar_width(design: MixerDesign) -> float:
    return TransconductanceAmplifier(design).device.params.width


def _mc_designs(count: int, seed: int = 19) -> list[MixerDesign]:
    design = MixerDesign()
    rng = np.random.default_rng(seed)
    spread = DeviceSpread()
    return [sample_design(design, rng, spread, f"mc-{i:03d}")
            for i in range(count)]


class TestMosfetArrayEquivalence:
    """MosfetArray evaluates every element exactly like a scalar Mosfet."""

    @COMMON_SETTINGS
    @given(vgs=st.floats(min_value=0.0, max_value=1.2),
           vds=st.floats(min_value=-0.1, max_value=1.2),
           width=st.floats(min_value=2e-6, max_value=2000e-6))
    def test_operating_point_matches_scalar_nmos(self, vgs, vds, width):
        scalar = Mosfet.nmos(width, 100e-9)
        bank = MosfetArray.nmos(np.array([width, 20e-6]),
                                np.array([100e-9, 100e-9]))
        scalar_op = scalar.operating_point(vgs, vds)
        bank_op = bank.operating_point(vgs, vds)
        for field in ("id", "gm", "gds", "vgs", "vds", "vov"):
            assert getattr(bank_op, field)[0] == getattr(scalar_op, field), field
        assert bank_op.regions[0] is scalar_op.region

    @COMMON_SETTINGS
    @given(vgs=st.floats(min_value=-1.2, max_value=0.0),
           vds=st.floats(min_value=-1.2, max_value=0.1))
    def test_operating_point_matches_scalar_pmos(self, vgs, vds):
        scalar = Mosfet.pmos(40e-6, 100e-9)
        bank = MosfetArray.pmos(np.array([40e-6]), np.array([100e-9]))
        scalar_op = scalar.operating_point(vgs, vds)
        bank_op = bank.operating_point(vgs, vds)
        for field in ("id", "gm", "gds", "vgs", "vds", "vov"):
            assert getattr(bank_op, field)[0] == getattr(scalar_op, field), field
        assert bank_op.regions[0] is scalar_op.region

    def test_per_element_technologies(self):
        corners = [slow_corner(), UMC65_LIKE, fast_corner()]
        bank = MosfetArray.nmos(np.full(3, 20e-6), np.full(3, 100e-9),
                                technologies=corners)
        banked = bank.operating_point(0.8, 0.6)
        for index, corner in enumerate(corners):
            scalar = Mosfet.nmos(20e-6, 100e-9, corner)
            assert banked.gm[index] == scalar.operating_point(0.8, 0.6).gm

    def test_element_round_trip(self):
        bank = MosfetArray.nmos(np.array([10e-6, 30e-6]), np.array([100e-9]))
        assert bank.element(1).params.width == 30e-6
        assert len(bank) == 2


class TestSolveWidthsEquivalence:
    """The batched width solver is bit-identical to N scalar solves."""

    @COMMON_SETTINGS
    @given(scales=st.lists(_SCALES, min_size=2, max_size=6))
    def test_widths_match_scalar_bitwise(self, scales):
        design = MixerDesign()
        grid = [_perturbed(design, gm, bias) for gm, bias in scales]
        batched = solve_widths(grid)
        scalar = np.array([_scalar_width(record) for record in grid])
        assert np.array_equal(batched, scalar)

    def test_monte_carlo_grid_matches_scalar(self):
        grid = _mc_designs(24)
        batched = solve_widths(grid)
        for index, record in enumerate(grid):
            tca = TransconductanceAmplifier(record)
            assert batched[index] == tca.device.params.width
            # The bias point downstream of the width is equally identical.
            seeded = TransconductanceAmplifier(record)
            seeded.seed_device(Mosfet.nmos(float(batched[index]),
                                           record.gm_device_length,
                                           record.technology))
            assert seeded.bias_point == tca.bias_point
            assert seeded.raw_gm == tca.raw_gm

    def test_mixer_intermediates_match_lazy_path(self):
        # Seeding a mixer with the batched width reproduces the lazy
        # mixer's spec intermediates field for field, both modes.
        for record in _mc_designs(4, seed=5):
            width = float(solve_widths([record, record])[0])
            seeded, lazy = ReconfigurableMixer(record), ReconfigurableMixer(record)
            seeded.seed_gm_width(width)
            assert seeded.gm_device_sized()
            for mode in (MixerMode.ACTIVE, MixerMode.PASSIVE):
                seeded.set_mode(mode)
                lazy.set_mode(mode)
                assert seeded.spec_intermediates() == lazy.spec_intermediates()

    def test_counters(self):
        grid = _mc_designs(5, seed=3)
        solves, batches = sizing_solve_count(), batched_sizing_solve_count()
        solve_widths(grid)
        assert sizing_solve_count() == solves + len(grid)
        assert batched_sizing_solve_count() == batches + 1

    def test_empty_input(self):
        solves = sizing_solve_count()
        assert solve_widths([]).shape == (0,)
        assert sizing_solve_count() == solves

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            solve_widths(_mc_designs(3), labels=["a", "b"])

    def test_unreachable_names_offending_label_only(self):
        design = MixerDesign()
        grid = [design, replace(design, tca_gm=1.0), design]
        with pytest.raises(ValueError) as excinfo:
            solve_widths(grid, labels=["good-0", "greedy", "good-1"])
        message = str(excinfo.value)
        assert "target gm unreachable" in message
        assert "greedy" in message
        assert "good-0" not in message and "good-1" not in message

    def test_unreachable_without_labels_names_index_and_fingerprint(self):
        design = MixerDesign()
        bad = replace(design, tca_gm=1.0)
        with pytest.raises(ValueError) as excinfo:
            solve_widths([design, bad])
        message = str(excinfo.value)
        assert "design[1]" in message
        assert bad.fingerprint()[:12] in message

    def test_scalar_error_message_unchanged(self):
        with pytest.raises(ValueError,
                           match="target gm unreachable within the width "
                                 "search range"):
            TransconductanceAmplifier(
                replace(MixerDesign(), tca_gm=1.0)).device


def _saturated_root(design: MixerDesign) -> tuple[float, float]:
    """(overdrive, width) of the saturated gm/Id root, solved independently.

    ``numpy.roots`` on ``rθ·v² + (r − θ)·v − 2``; the width follows from the
    square-law current at that overdrive.
    """
    technology = design.technology
    bias = design.tca_bias_current / 2.0
    ratio, theta = design.tca_gm / bias, technology.theta
    roots = np.roots([ratio * theta, ratio - theta, -2.0])
    vov = float(max(root.real for root in roots))
    clm = 1.0 + technology.lambda_n * technology.mid_rail
    beta = 2.0 * bias * (1.0 + theta * vov) / (vov ** 2 * clm)
    return vov, beta * design.gm_device_length / technology.u_cox_n


def _closed_form_domain(design: MixerDesign) -> bool:
    """Whether the closed form, not the bisection, sizes ``design``."""
    bias = design.tca_bias_current / 2.0
    _, width = _saturated_root(design)
    return (design.tca_gm >= 2.0 * bias / design.technology.mid_rail
            and 2e-6 <= width <= 2000e-6)


def _assert_closed_form_matches(design: MixerDesign,
                                rel: float = 1e-12) -> None:
    """Width vs the bisection, and gm at the bias point vs the target."""
    width, reference = gm_device_width(design), _bisect_width(design)
    assert abs(width - reference) <= rel * reference
    gm = TransconductanceAmplifier(design).raw_gm
    assert abs(gm - design.tca_gm) <= rel * design.tca_gm


def _bisection_resolution(design: MixerDesign) -> float:
    """Relative resolution of the bisection reference at ``design``.

    Its inner bias solve stops once the gate bracket is under 1e-12 V, so
    the gm it reads carries up to ~5e-13/v_ov relative error, and the width
    (gm ~ sqrt(W) at fixed current) twice that; doubled again for margin.
    """
    vov, _ = _saturated_root(design)
    return max(1e-12, 2e-12 / vov)


#: ``Mosfet.operating_point`` calls of one cold solo fig8 request when every
#: width was bisected (the closed form measures 194).
_BISECTED_FIG8_OPERATING_POINT_CALLS = 7322


class TestClosedFormSizing:
    """The closed-form width agrees with the bisection it short-cuts."""

    @COMMON_SETTINGS
    @given(scales=_SCALES)
    def test_scales_match_bisection(self, scales):
        design = _perturbed(MixerDesign(), *scales)
        if _closed_form_domain(design):
            _assert_closed_form_matches(design,
                                        _bisection_resolution(design))
        else:
            assert gm_device_width(design) == _bisect_width(design)

    @pytest.mark.parametrize("scales", [(1.0, 1.0), (1.6, 0.6), (0.6, 0.6)])
    def test_root_is_exact_in_the_device_model(self, scales):
        # At the root's overdrive the model reproduces both the bias
        # current and the target gm to rounding — the bisection's own
        # residual is what the looser _SCALES tolerance absorbs.
        design = _perturbed(MixerDesign(), *scales)
        vov, _ = _saturated_root(design)
        technology = design.technology
        device = Mosfet.nmos(gm_device_width(design),
                             design.gm_device_length, technology)
        op = device.operating_point(technology.vth_n + vov,
                                    technology.mid_rail)
        bias = design.tca_bias_current / 2.0
        assert op.region is MosfetRegion.SATURATION
        assert abs(op.id - bias) <= 1e-14 * bias
        assert abs(op.gm - design.tca_gm) <= 1e-14 * design.tca_gm

    def test_monte_carlo_population_in_domain(self):
        for design in _mc_designs(24, seed=7):
            assert _closed_form_domain(design)
            _assert_closed_form_matches(design)

    @pytest.mark.parametrize("corner", [slow_corner, fast_corner])
    def test_process_corners_in_domain(self, corner):
        design = replace(MixerDesign(), technology=corner())
        assert _closed_form_domain(design)
        _assert_closed_form_matches(design)

    @pytest.mark.parametrize("design", [
        # gm/Id below 2/v_ds: a triode root competes, so the bisection runs.
        _perturbed(MixerDesign(), 0.5, 1.5),
        # The same gm/Id sits inside the domain at 1.2 V, not at 0.8 V.
        replace(MixerDesign(), tca_gm=MixerDesign().tca_gm * 0.5,
                technology=UMC65_LIKE.scaled_supply(0.8)),
        # The saturated root is narrower than the 2 um search floor.
        replace(MixerDesign(), tca_gm=1e-4, tca_bias_current=1e-5),
    ], ids=["low-gm-over-id", "0v8-supply", "below-2um"])
    def test_outside_domain_is_the_bisection_bitwise(self, design):
        assert not _closed_form_domain(design)
        reference = _bisect_width(design)
        assert gm_device_width(design) == reference
        assert _scalar_width(design) == reference
        assert solve_widths([design, design])[1] == reference

    def test_unreachable_target_is_none(self):
        assert gm_device_width(replace(MixerDesign(), tca_gm=1.0)) is None

    def test_cold_fig8_device_evaluations(self, monkeypatch):
        # Solo requests size lazily through the scalar path, so the count
        # is one request's whole device-model work.
        calls = []
        evaluate = Mosfet.operating_point

        def counting(self, *args, **kwargs):
            calls.append(None)
            return evaluate(self, *args, **kwargs)
        monkeypatch.setattr(Mosfet, "operating_point", counting)
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        MixerService(response_cache=False).submit(
            SpecRequest(experiment="fig8"))
        assert 0 < len(calls) <= _BISECTED_FIG8_OPERATING_POINT_CALLS // 20


class TestSeedDevice:
    def test_seed_skips_the_solve(self):
        design = MixerDesign()
        device = TransconductanceAmplifier(design).device
        solves = sizing_solve_count()
        tca = TransconductanceAmplifier(design)
        assert not tca.device_sized
        tca.seed_device(device)
        assert tca.device_sized
        assert tca.device is device
        assert sizing_solve_count() == solves

    def test_seed_rejects_non_mosfet(self):
        with pytest.raises(TypeError):
            TransconductanceAmplifier(MixerDesign()).seed_device(object())


class TestTaylorConvergenceGuard:
    """Regression: the fixed-point bias loop raises instead of going stale."""

    def test_nominal_degeneration_converges(self):
        design = MixerDesign()
        tca = TransconductanceAmplifier(
            design, degeneration_resistance=design.degeneration_resistance)
        assert math.isfinite(tca.taylor_coefficients().g1)

    def test_moderate_degeneration_converges(self):
        tca = TransconductanceAmplifier(MixerDesign(),
                                        degeneration_resistance=80.0)
        assert tca.taylor_coefficients().g1 > 0.0

    def test_divergent_degeneration_raises(self):
        tca = TransconductanceAmplifier(MixerDesign(),
                                        degeneration_resistance=1e6)
        with pytest.raises(RuntimeError, match="failed to converge"):
            tca.taylor_coefficients()
