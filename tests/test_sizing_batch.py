"""Sizing-solver suite: closed form, bisection fallback, batched block.

:func:`~repro.core.transconductance.gm_device_width` sizes the Gm device in
closed form from the saturated gm/Id wherever that root is the only one,
and falls back to the width bisection everywhere else.  This suite pins
the closed form against the retained bisection (1e-12 relative inside its
domain, bitwise outside it), the unchanged unreachable-target errors, the
device-evaluation work a cold request now does, the batched
:func:`~repro.core.transconductance.solve_widths` entry point (bit-identical
to the lazy scalar solve, since both call the same function), the
:class:`MosfetArray` device model against the scalar :class:`Mosfet`, and
the Gm-stage block solver (:func:`~repro.core.transconductance.\
solve_gm_block`: bias point and Taylor expansion) bitwise against the lazy
scalar path it replaces for design blocks, and the spec-intermediates
block pass (:func:`~repro.core.reconfigurable_mixer.solve_intermediates`):
a block of N bitwise equal to N blocks of one.  It also carries the regression
test for the degenerated-bias fixed-point loop, which raises instead of
silently returning a stale current when it fails to converge, and the
work-count pins of a cold fig8 request and a default yield search.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MixerDesign, MixerMode
import repro.core.reconfigurable_mixer as mixer_module
import repro.sweep.runner as runner_module
from repro.core.reconfigurable_mixer import (
    ReconfigurableMixer,
    SpecIntermediates,
    presolve_cells,
    solve_intermediates,
)
from repro.api import MixerService, SpecRequest
from repro.core.transconductance import (
    TransconductanceAmplifier,
    _bisect_width,
    batched_sizing_solve_count,
    gm_device_width,
    sizing_solve_count,
    solve_gm_block,
    solve_widths,
)
import repro.devices.mosfet as mosfet_module
from repro.devices.mosfet import (
    Mosfet,
    MosfetArray,
    MosfetOperatingPoint,
    MosfetRegion,
    squared,
)
from repro.devices.technology import UMC65_LIKE, fast_corner, slow_corner
from repro.sweep import SweepRunner
from repro.sweep.montecarlo import DeviceSpread, sample_design
from repro.sweep.runner import ALL_SPECS

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

    @COMMON_SETTINGS
    @given(vgs=st.floats(min_value=-0.2, max_value=1.2),
           vds=st.floats(min_value=-0.1, max_value=1.2))
    def test_drain_current_matches_scalar(self, vgs, vds):
        bank = MosfetArray.nmos(np.array([7e-6, 300e-6]),
                                np.array([100e-9, 65e-9]))
        currents = bank.drain_current(vgs, vds)
        for index in range(len(bank)):
            assert currents[index] == \
                bank.element(index).drain_current(vgs, vds)

    @COMMON_SETTINGS
    @given(widths=st.lists(st.floats(min_value=2e-6, max_value=2000e-6),
                           min_size=1, max_size=5),
           target=st.floats(min_value=1e-6, max_value=5e-3))
    def test_vgs_for_current_matches_scalar(self, widths, target):
        corners = [slow_corner(), UMC65_LIKE, fast_corner()]
        technologies = [corners[i % 3] for i in range(len(widths))]
        bank = MosfetArray.nmos(np.array(widths), 100e-9, technologies)
        scalar = []
        for index, width in enumerate(widths):
            device = Mosfet.nmos(width, 100e-9, technologies[index])
            try:
                scalar.append(device.vgs_for_current(target, 0.6))
            except ValueError:
                scalar.append(None)
        if None in scalar:
            # Narrow devices cannot carry large targets: the bank refuses
            # exactly where the scalar solver does.
            with pytest.raises(ValueError, match="unreachable") as excinfo:
                bank.vgs_for_current(target, 0.6)
            named = [f"element[{index}]" for index, value
                     in enumerate(scalar) if value is None]
            assert all(name in str(excinfo.value) for name in named)
            return
        assert list(bank.vgs_for_current(target, 0.6)) == scalar

    def test_vgs_for_current_pmos_matches_scalar(self):
        bank = MosfetArray.pmos(np.array([20e-6, 80e-6]), 100e-9)
        vgs = bank.vgs_for_current(1e-4, -0.6)
        for index in range(2):
            assert vgs[index] == \
                bank.element(index).vgs_for_current(1e-4, -0.6)
            assert vgs[index] < 0.0

    def test_unreachable_current_names_the_element(self):
        bank = MosfetArray.nmos(np.array([20e-6, 1e-9]), 100e-9)
        with pytest.raises(ValueError) as excinfo:
            bank.vgs_for_current(1e-3, 0.6, names=["wide", "sliver"])
        message = str(excinfo.value)
        assert "sliver: target current" in message
        assert "unreachable for this geometry" in message
        assert "wide" not in message


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


#: Scalar device evaluations of one cold solo fig8 request when every
#: width was bisected.
_BISECTED_FIG8_DEVICE_EVALUATIONS = 7322

#: The same request with closed-form sizing and one bias bisection shared by
#: both modes (194 while each mode bisected its own bias).
_COLD_FIG8_DEVICE_EVALUATIONS = 150


def _count_calls(monkeypatch, method: str) -> list:
    """Record every call of ``Mosfet.<method>`` for the rest of the test."""
    calls: list = []
    original = getattr(Mosfet, method)

    def counting(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(Mosfet, method, counting)
    return calls


def _count_scalar_evaluations(monkeypatch) -> list:
    """Record every scalar device evaluation for the rest of the test.

    Each one, a full operating point or a solver's id-only step, runs the
    shared region test once on floats; a bank evaluation runs it on
    arrays and is not counted.
    """
    calls: list = []
    original = mosfet_module.region_test

    def counting(vov, nvds):
        if not isinstance(vov, np.ndarray):
            calls.append(None)
        return original(vov, nvds)
    monkeypatch.setattr(mosfet_module, "region_test", counting)
    return calls


def _count_operating_points_built(monkeypatch) -> list:
    """Record every :class:`MosfetOperatingPoint` constructed."""
    built: list = []
    original = MosfetOperatingPoint.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)
    monkeypatch.setattr(MosfetOperatingPoint, "__init__", counting)
    return built


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
        # Solo requests solve lazily through the scalar path, so the count
        # is one request's whole device-model work: one bias bisection
        # shared by both modes, then both Taylor expansions.
        calls = _count_scalar_evaluations(monkeypatch)
        bisections = _count_calls(monkeypatch, "vgs_for_current")
        MixerService(response_cache=False).submit(
            SpecRequest(experiment="fig8"))
        assert len(bisections) == 1
        assert 0 < len(calls) <= _COLD_FIG8_DEVICE_EVALUATIONS
        assert len(calls) < _BISECTED_FIG8_DEVICE_EVALUATIONS // 40

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    def test_scalar_bias_solve_builds_no_operating_point(self, monkeypatch,
                                                         polarity):
        device = getattr(Mosfet, polarity)(20e-6, 100e-9)
        evaluations = _count_scalar_evaluations(monkeypatch)
        built = _count_operating_points_built(monkeypatch)
        device.vgs_for_current(1e-3, 0.6)
        assert len(evaluations) > 30
        assert built == []

    def test_scalar_taylor_expansion_builds_no_operating_point(
            self, monkeypatch):
        design = MixerDesign()
        tca = TransconductanceAmplifier(
            design, degeneration_resistance=design.degeneration_resistance)
        tca.bias_point  # the one operating point a stage keeps
        evaluations = _count_scalar_evaluations(monkeypatch)
        built = _count_operating_points_built(monkeypatch)
        tca.taylor_coefficients()
        assert len(evaluations) > 5
        assert built == []


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


_BOTH_MODES = (MixerMode.ACTIVE, MixerMode.PASSIVE)


def _scalar_stage(design: MixerDesign,
                  mode: MixerMode) -> TransconductanceAmplifier:
    """A fresh, unlinked TCA solved lazily through the scalar code."""
    return TransconductanceAmplifier(
        design, 0.0 if mode is MixerMode.ACTIVE
        else design.degeneration_resistance)


def _assert_stage_matches_scalar(stage: TransconductanceAmplifier,
                                 design: MixerDesign,
                                 mode: MixerMode) -> None:
    scalar = _scalar_stage(design, mode)
    assert stage.gm_stage_solved
    assert stage.bias_point.vgs == scalar.bias_point.vgs
    assert stage.bias_point.gm == scalar.bias_point.gm
    assert stage.bias_point == scalar.bias_point
    block, reference = stage.taylor_coefficients(), scalar.taylor_coefficients()
    assert (block.g1, block.g2, block.g3) == \
        (reference.g1, reference.g2, reference.g3)


def _presolved(designs: list[MixerDesign], modes) -> list[ReconfigurableMixer]:
    mixers = [ReconfigurableMixer(design) for design in designs]
    solved = presolve_cells((f"d{index}", mixer, mode)
                            for index, mixer in enumerate(mixers)
                            for mode in modes)
    assert solved == len(designs)
    return mixers


class TestGmBlockSolver:
    """The block bias/Taylor solve is bitwise the lazy scalar path."""

    @pytest.mark.parametrize("modes", [_BOTH_MODES, (MixerMode.ACTIVE,),
                                       (MixerMode.PASSIVE,)],
                             ids=["both", "active", "passive"])
    def test_monte_carlo_population_matches_scalar(self, modes):
        designs = _mc_designs(32, seed=11)
        for design, mixer in zip(designs, _presolved(designs, modes)):
            for mode in modes:
                _assert_stage_matches_scalar(mixer.transconductor_for(mode),
                                             design, mode)

    def test_process_corners_match_scalar(self):
        designs = [replace(MixerDesign(), technology=corner())
                   for corner in (slow_corner, fast_corner)]
        designs += _mc_designs(3, seed=2)
        for design, mixer in zip(designs, _presolved(designs, _BOTH_MODES)):
            for mode in _BOTH_MODES:
                _assert_stage_matches_scalar(mixer.transconductor_for(mode),
                                             design, mode)

    def test_one_bias_solve_serves_both_modes(self, monkeypatch):
        bisections = _count_calls(monkeypatch, "vgs_for_current")
        evaluations = _count_scalar_evaluations(monkeypatch)
        designs = _mc_designs(6, seed=4)
        mixers = _presolved(designs, _BOTH_MODES)
        assert bisections == []
        # One scalar evaluation per design: its bias point's gm.
        assert len(evaluations) == len(designs)
        for mixer in mixers:
            assert mixer.transconductor_for(MixerMode.ACTIVE).bias_point is \
                mixer.transconductor_for(MixerMode.PASSIVE).bias_point

    def test_mixer_intermediates_match_lazy_path(self):
        designs = _mc_designs(4, seed=9)
        for design, mixer in zip(designs, _presolved(designs, _BOTH_MODES)):
            lazy = ReconfigurableMixer(design)
            for mode in _BOTH_MODES:
                mixer.set_mode(mode)
                lazy.set_mode(mode)
                assert mixer.spec_intermediates() == lazy.spec_intermediates()

    def test_single_design_stays_on_the_scalar_path(self):
        mixer = ReconfigurableMixer(MixerDesign())
        assert presolve_cells([("solo", mixer, MixerMode.PASSIVE)]) == 0
        assert not mixer.transconductor_for(MixerMode.PASSIVE).bias_solved

    def test_solved_stages_are_skipped(self):
        designs = _mc_designs(3, seed=6)
        mixers = _presolved(designs, _BOTH_MODES)
        assert presolve_cells((f"d{index}", mixer, mode)
                              for index, mixer in enumerate(mixers)
                              for mode in _BOTH_MODES) == 0

    def test_divergent_degeneration_names_only_its_label(self):
        design = MixerDesign()
        bad = replace(design, degeneration_resistance=1e6)
        with pytest.raises(RuntimeError) as scalar:
            _scalar_stage(bad, MixerMode.PASSIVE).taylor_coefficients()
        mixers = [ReconfigurableMixer(record)
                  for record in (design, bad, replace(design, tca_gm=0.016))]
        labels = ["good-0", "runaway", "good-1"]
        with pytest.raises(RuntimeError) as block:
            presolve_cells((label, mixer, mode)
                           for label, mixer in zip(labels, mixers)
                           for mode in _BOTH_MODES)
        message = str(block.value)
        assert message == f"runaway: {scalar.value}"
        assert "failed to converge" in message
        assert "good-0" not in message and "good-1" not in message

    def test_unreachable_bias_names_only_its_label(self):
        design = MixerDesign()
        stages = [TransconductanceAmplifier(design) for _ in range(3)]
        sliver = Mosfet.nmos(1e-9, design.gm_device_length)
        stages[1].seed_device(sliver)
        reference = TransconductanceAmplifier(design)
        reference.seed_device(sliver)
        with pytest.raises(ValueError) as scalar:
            reference.bias_point
        with pytest.raises(ValueError) as block:
            solve_gm_block(stages, ["wide-0", "sliver", "wide-1"])
        message = str(block.value)
        assert message == f"sliver: {scalar.value}"
        assert "wide-0" not in message and "wide-1" not in message

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            solve_gm_block([TransconductanceAmplifier(MixerDesign())], [])


def _bits(cell: SpecIntermediates) -> tuple:
    """A cell's fields as exact bit patterns (``==`` would merge -0.0)."""
    return (cell.mode,) + tuple(float(getattr(cell, name)).hex()
                                for name in SpecIntermediates.FLOAT_FIELDS)


def _solo(design: MixerDesign, mode: MixerMode) -> SpecIntermediates:
    """The cell as a block of one, on a fresh lazily solved mixer."""
    return ReconfigurableMixer(design, mode).spec_intermediates()


def _scalar_reference(mixer: ReconfigurableMixer,
                      mode: MixerMode) -> SpecIntermediates:
    """The intermediates in scalar Python floats: the reference the block
    pass must reproduce bit for bit (``**`` is CPython's libm pow)."""
    from repro.core.power import PowerBudget
    from repro.rf.conversion_gain import SWITCHING_FACTOR
    from repro.rf.noise_figure import noise_figure_from_factor
    from repro.units import BOLTZMANN, db_from_voltage_ratio, \
        dbm_from_vpeak, vpeak_from_dbm
    design, quad = mixer.design, mixer.switching_quad
    stage = mixer.transconductor_for(mode)
    taylor = stage.taylor_coefficients()
    gm, gm_eff = stage.raw_gm, stage.effective_gm
    load = mixer._load_resistance(mode)
    gain = SWITCHING_FACTOR * gm_eff * load
    rs = 50.0
    factor = 1.0
    factor += 2.0 * design.technology.gamma_noise / (gm * rs)
    factor += quad.noise_excess_factor(mode)
    conversion = SWITCHING_FACTOR * gm_eff
    if mode is MixerMode.PASSIVE:
        factor += 2.0 * design.degeneration_resistance / rs
        factor += 4.0 * quad.switch_on_resistance / rs
        factor += 2.0 / (conversion ** 2 * design.feedback_resistance * rs)
        ota_psd = 2.0 * mixer.tia.ota.input_noise_density ** 2
        source_psd = 4.0 * BOLTZMANN * design.technology.temperature * rs
        factor += ota_psd / (source_psd * (conversion * load) ** 2)
        output_iip3 = math.inf
    else:
        factor += 2.0 / (conversion ** 2 * design.load_resistance * rs)
        output_iip3 = float(dbm_from_vpeak(
            mixer.load.output_intercept_vpeak() / gain))
    inverse_sum = 0.0
    for value in (stage.iip3_dbm(), quad.iip3_dbm(mode), output_iip3):
        if not math.isinf(value):
            inverse_sum += 1.0 / float(vpeak_from_dbm(value)) ** 2
    iip3 = math.inf if inverse_sum == 0.0 else \
        float(dbm_from_vpeak(math.sqrt(1.0 / inverse_sum)))
    mismatch = design.differential_mismatch
    iip2 = math.inf if mismatch <= 0 or taylor.g2 == 0.0 else float(
        dbm_from_vpeak(abs(taylor.g1 / taylor.g2) / mismatch))
    band_low, band_high = stage.band_edges(
        mixer._coupling_capacitance(mode), mixer._band_node_resistance(mode))
    return SpecIntermediates(
        mode, float(db_from_voltage_ratio(gain)), band_low, band_high,
        float(noise_figure_from_factor(factor)), quad.flicker_corner(mode),
        iip3, iip2, min(iip3 - 9.6, float(dbm_from_vpeak(
            0.98 * design.output_swing_limit / gain))),
        PowerBudget(design).total_mw(mode))


def _block_population() -> list[MixerDesign]:
    """The paper design, 32 Monte-Carlo draws, and two whose mismatch
    leaves no even-order residue (zero, and a meaningless negative)."""
    designs = [MixerDesign()] + _mc_designs(32, seed=23)
    return designs + [replace(designs[7], differential_mismatch=mismatch)
                      for mismatch in (-1e-3, 0.0)]


def _spy_intermediate_blocks(monkeypatch) -> list[tuple[int, MixerMode]]:
    """Record (cells filled, mode) of every block pass for the test."""
    blocks: list = []
    original = mixer_module.solve_intermediates

    def spy(mixers, mode):
        filled = original(mixers, mode)
        blocks.append((filled, mode))
        return filled
    # The runner imports the function by name; patch both references.
    monkeypatch.setattr(mixer_module, "solve_intermediates", spy)
    monkeypatch.setattr(runner_module, "solve_intermediates", spy)
    return blocks


class TestIntermediatesBlock:
    """One array pass per mode is bitwise N blocks of one."""

    @pytest.mark.parametrize("presolved", [True, False],
                             ids=["presolved", "lazy"])
    @pytest.mark.parametrize("mode", _BOTH_MODES, ids=lambda m: m.value)
    def test_block_equals_blocks_of_one(self, mode, presolved):
        designs = _block_population()
        mixers = ([ReconfigurableMixer(design) for design in designs]
                  if not presolved else _presolved(designs, (mode,)))
        # A repeated mixer is filled once.
        assert solve_intermediates(mixers + mixers[:3], mode) == len(designs)
        for design, mixer in zip(designs, mixers):
            assert _bits(mixer.peek_intermediates(mode)) == \
                _bits(_solo(design, mode)) == \
                _bits(_scalar_reference(mixer, mode))
        for mixer in mixers[-2:]:
            assert mixer.peek_intermediates(mode).iip2_dbm == math.inf
        assert math.isfinite(mixers[0].peek_intermediates(mode).iip2_dbm)
        assert solve_intermediates(mixers, mode) == 0

    def test_infinite_intercept_branches(self):
        # g3 == 0 drops the Gm-stage term and g2 == 0 makes IIP2 +inf; a
        # passive quad without its own intercept leaves no term at all.
        from repro.core.transconductance import TAYLOR_DELTA, \
            TaylorCoefficients
        design = replace(MixerDesign(), passive_quad_iip3_dbm=math.inf)
        for mode in _BOTH_MODES:
            mixers = [ReconfigurableMixer(design) for _ in range(2)]
            for mixer in mixers:
                stage = mixer.transconductor_for(mode)
                taylor = stage.taylor_coefficients()
                stage._taylor_cache[TAYLOR_DELTA] = TaylorCoefficients(
                    taylor.g1, 0.0, 0.0)
            solve_intermediates(mixers[:1], mode)
            mixers[1].set_mode(mode)
            cell = mixers[0].peek_intermediates(mode)
            assert _bits(cell) == _bits(mixers[1].spec_intermediates()) \
                == _bits(_scalar_reference(mixers[1], mode))
            assert math.isinf(cell.iip2_dbm)
            assert math.isinf(cell.iip3_dbm) is (mode is MixerMode.PASSIVE)
            assert math.isfinite(cell.p1db_dbm)

    def test_squares_like_cpython_floats(self):
        # The pass squares through libm pow(), as CPython's float ``** 2``
        # does; numpy's x * x rounds differently for ~0.1 % of inputs.
        values = np.exp(np.random.default_rng(5).uniform(-40, 40, 20_000))
        assert squared(values).tolist() == \
            [value ** 2 for value in values.tolist()]
        assert [squared(value) for value in values.tolist()[:100]] == \
            squared(values[:100]).tolist()

    def test_switch_in_cutoff_gives_infinite_passive_noise(self):
        cutoff = replace(MixerDesign(), technology=replace(
            MixerDesign().technology, vth_n=0.61))
        mixers = [ReconfigurableMixer(design)
                  for design in (MixerDesign(), cutoff)]
        solve_intermediates(mixers, MixerMode.PASSIVE)
        noisy = mixers[1].peek_intermediates(MixerMode.PASSIVE)
        assert math.isinf(noisy.white_nf_db)
        assert _bits(noisy) == _bits(_solo(cutoff, MixerMode.PASSIVE)) \
            == _bits(_scalar_reference(mixers[1], MixerMode.PASSIVE))

    def test_noise_factor_below_one_raises(self):
        design = replace(MixerDesign(), switching_noise_excess=-50.0)
        mixers = [ReconfigurableMixer(record)
                  for record in (MixerDesign(), design)]
        with pytest.raises(ValueError, match="noise factor cannot be below"):
            solve_intermediates(mixers, MixerMode.ACTIVE)

    def test_sweep_with_memoized_and_cached_cells(self, tmp_path,
                                                  monkeypatch):
        designs = _block_population()
        grid = dict(rf_frequencies=[0.5e9, 2.405e9],
                    if_frequencies=[50e3, 5e6])
        # The first 8 designs' cells come from the engine cache, the next
        # 4 are memoized in active mode, one design is repeated.
        SweepRunner(specs=ALL_SPECS, cache=tmp_path).run(
            designs=designs[:8], **grid)
        runner = SweepRunner(specs=ALL_SPECS, cache=tmp_path)
        runner.run(designs=designs[8:12], modes=[MixerMode.ACTIVE], **grid)
        axis = designs + [designs[10]]
        blocks = _spy_intermediate_blocks(monkeypatch)
        sweep = runner.run(designs=axis, **grid)
        assert blocks == [(len(designs) - 12, MixerMode.ACTIVE),
                          (len(designs) - 8, MixerMode.PASSIVE)]
        assert runner.cache.hits == 16
        for mode_index, mode in enumerate(_BOTH_MODES):
            for index, design in enumerate(axis):
                solo = SweepRunner(design, specs=ALL_SPECS).run(
                    modes=[mode], **grid)
                for spec in ALL_SPECS:
                    assert sweep.data[spec][index, mode_index].tobytes() \
                        == solo.data[spec][0, 0].tobytes(), (index, spec)


#: Block passes of a default ``yield_opt`` search: one per mode for each
#: of its 3 generations (each scores 8 candidates x 16 corners at once).
_YIELD_OPT_INTERMEDIATE_BLOCKS = 3 * len(_BOTH_MODES)


def test_default_yield_opt_intermediate_blocks(monkeypatch):
    from repro.optimize import run_yield_opt
    blocks = _spy_intermediate_blocks(monkeypatch)
    run_yield_opt()
    assert len(blocks) == _YIELD_OPT_INTERMEDIATE_BLOCKS
    assert sum(filled for filled, _ in blocks) == \
        len(_BOTH_MODES) * _YIELD_OPT_CORNER_DESIGNS


def test_cold_fig8_runs_two_blocks_of_one(monkeypatch):
    blocks = _spy_intermediate_blocks(monkeypatch)
    MixerService(response_cache=False).submit(SpecRequest(experiment="fig8"))
    assert blocks == [(1, MixerMode.ACTIVE), (1, MixerMode.PASSIVE)]


#: Scalar device evaluations of a default-grid ``yield_opt`` search
#: (3 generations x 8 candidates x 16 corners = 384 corner designs, both
#: modes): 73,993+ while every cell bisected its bias and iterated its
#: Taylor expansion through the scalar device, 2 per corner design with
#: the block solver.
_YIELD_OPT_CORNER_DESIGNS = 384
_YIELD_OPT_DEVICE_EVALUATIONS = 768


def test_default_yield_opt_device_evaluations(monkeypatch):
    from repro.optimize import run_yield_opt
    calls = _count_scalar_evaluations(monkeypatch)
    bisections = _count_calls(monkeypatch, "vgs_for_current")
    run_yield_opt()
    assert bisections == []
    assert len(calls) == _YIELD_OPT_DEVICE_EVALUATIONS
    assert len(calls) <= 2 * _YIELD_OPT_CORNER_DESIGNS
