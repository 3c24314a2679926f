"""The reconfigurable active/passive down-conversion mixer (Fig. 4-6).

:class:`ReconfigurableMixer` ties the building blocks together and switches
between the two configurations the paper describes:

* **active mode** — the common-source Gm devices drive a double-balanced
  Gilbert cell loaded by the transmission gate (Fig. 6b); the TIA is powered
  down; high gain and low noise figure, modest linearity;
* **passive mode** — the PMOS switches Sw1-2 route the TCA current straight
  into the quad (path 1 of Fig. 4) and double as degeneration resistance;
  the quad carries no DC current and the TIA converts the commutated current
  to the IF voltage (Fig. 6a); lower gain and higher NF, much better IIP3.

The class exposes both:

* **analytic spec accessors** (`conversion_gain_db`, `noise_figure_db`,
  `iip3_dbm`, `p1db_dbm`, `power_mw`, `band_edges`) derived from the device
  models and the design record — these regenerate the *curves* of Fig. 8 and
  Fig. 9 quickly; and
* a **waveform-level device** (:meth:`waveform_device`) that applies the same
  nonlinearities, LO commutation, IF filtering and swing limiting to sampled
  waveforms — this is what the two-tone (Fig. 10) and compression benches
  actually measure, so the headline numbers come out of spectra, not out of
  closed-form shortcuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from repro.core.config import (
    MixerDesign,
    MixerMode,
    PaperTargets,
    paper_targets,
)
from repro.core.load import TransmissionGateLoad
from repro.core.power import PowerBudget
from repro.core.switching_quad import LoDrive, SwitchingQuad
from repro.core.tia import TransimpedanceAmplifier
from repro.core.transconductance import (
    TransconductanceAmplifier,
    band_edges_from,
    band_magnitude,
    solve_gm_block,
    solve_widths,
)
from repro.devices.mosfet import Mosfet, squared
from repro.rf.conversion_gain import SWITCHING_FACTOR
from repro.rf.filters import FirstOrderLowPass, one_pole_response
from repro.rf.noise_figure import nf_with_flicker, noise_figure_from_factor
from repro.units import (
    BOLTZMANN,
    REFERENCE_IMPEDANCE,
    db_from_voltage_ratio,
    dbm_from_vpeak,
    vpeak_from_dbm,
)


@dataclass(frozen=True)
class SpecIntermediates:
    """Memoized per-(design, mode) scalars behind the spec accessors.

    Everything here depends only on the frozen design record and the mode —
    not on the swept RF/IF frequencies — so the sweep engine computes it once
    per (design, mode) cell and then evaluates whole frequency grids through
    the vectorized accessors.  The scalar accessors read the same cache, so
    repeated point queries stop re-deriving the operating point too.
    """

    mode: MixerMode
    peak_gain_db: float
    band_low_hz: float
    band_high_hz: float
    white_nf_db: float
    flicker_corner_hz: float
    iip3_dbm: float
    iip2_dbm: float
    p1db_dbm: float
    power_mw: float

    #: Float fields, in declaration order; shared by (de)serialization.
    FLOAT_FIELDS = ("peak_gain_db", "band_low_hz", "band_high_hz",
                    "white_nf_db", "flicker_corner_hz", "iip3_dbm",
                    "iip2_dbm", "p1db_dbm", "power_mw")

    def to_dict(self) -> dict:
        """JSON-ready mapping (the on-disk spec cache's payload format)."""
        payload: dict = {"mode": self.mode.value}
        for name in self.FLOAT_FIELDS:
            payload[name] = float(getattr(self, name))
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SpecIntermediates":
        """Rebuild from :meth:`to_dict` output.

        Raises ``KeyError``/``ValueError``/``TypeError`` on malformed input;
        the spec cache treats any of those as a corrupt entry and recomputes.
        """
        values = {}
        for name in cls.FLOAT_FIELDS:
            value = payload[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"field {name!r} must be a number, "
                                f"got {type(value).__name__}")
            values[name] = float(value)
        return cls(mode=MixerMode(payload["mode"]), **values)


def conversion_gain_db_from(peak_gain_db, band_low_hz, band_high_hz,
                            if_pole_hz, rf_frequency, if_frequency
                            ) -> np.ndarray:
    """Conversion gain (dB) from a cell's peak gain, band edges and IF
    pole; the arguments broadcast, so the sweep engine stacks cells."""
    band = band_magnitude(rf_frequency, band_low_hz, band_high_hz)
    if_mag = np.abs(one_pole_response(if_frequency, if_pole_hz))
    return np.asarray(peak_gain_db + db_from_voltage_ratio(band)
                      + db_from_voltage_ratio(if_mag))


@dataclass(frozen=True)
class MixerSpecs:
    """Headline specifications of one mixer configuration."""

    mode: MixerMode
    conversion_gain_db: float
    noise_figure_db: float
    iip3_dbm: float
    iip2_dbm: float
    p1db_dbm: float
    power_mw: float
    band_low_hz: float
    band_high_hz: float
    flicker_corner_hz: float

    @property
    def bandwidth_ghz(self) -> tuple[float, float]:
        """RF band edges in GHz."""
        return self.band_low_hz / 1e9, self.band_high_hz / 1e9

    def as_table_row(self) -> dict[str, float | str]:
        """Row for the Table I comparison harness."""
        return {
            "design": f"This work ({self.mode.value})",
            "gain_db": round(self.conversion_gain_db, 1),
            "nf_db": round(self.noise_figure_db, 1),
            "iip3_dbm": round(self.iip3_dbm, 1),
            "p1db_dbm": round(self.p1db_dbm, 1),
            "power_mw": round(self.power_mw, 2),
            "band_low_ghz": round(self.band_low_hz / 1e9, 2),
            "band_high_ghz": round(self.band_high_hz / 1e9, 2),
            "technology": "65nm (behavioural)",
            "supply_v": 1.2,
        }


class ReconfigurableMixer:
    """The paper's mode-switchable down-conversion mixer."""

    def __init__(self, design: MixerDesign | None = None,
                 mode: MixerMode = MixerMode.ACTIVE) -> None:
        self.design = design if design is not None else MixerDesign()
        self._mode = mode
        # Per-mode memo of the frequency-independent spec scalars; the design
        # is frozen, so entries never go stale and survive mode flips.
        self._intermediates: dict[MixerMode, SpecIntermediates] = {}
        # The Gm bias point does not depend on the degeneration: both TCA
        # configurations share one memo, so one bias solve serves both modes.
        self._gm_bias_memo: dict = {}

    # -- mode control ---------------------------------------------------------

    @property
    def mode(self) -> MixerMode:
        """Current configuration."""
        return self._mode

    def set_mode(self, mode: MixerMode) -> None:
        """Reconfigure the mixer (flips Vlogic on Mp1/Mp2, the TIA switch p3...)."""
        if not isinstance(mode, MixerMode):
            raise TypeError("mode must be a MixerMode")
        self._mode = mode

    def reconfigure(self) -> MixerMode:
        """Toggle between active and passive mode; returns the new mode."""
        self.set_mode(MixerMode.PASSIVE if self._mode is MixerMode.ACTIVE
                      else MixerMode.ACTIVE)
        return self._mode

    @property
    def vlogic(self) -> int:
        """Logic level currently applied to the PMOS mode switches."""
        return self._mode.vlogic

    # -- building blocks --------------------------------------------------------

    @cached_property
    def _tca_active(self) -> TransconductanceAmplifier:
        return TransconductanceAmplifier(
            self.design, degeneration_resistance=0.0,
            bias_memo=self._gm_bias_memo)

    @cached_property
    def _tca_passive(self) -> TransconductanceAmplifier:
        return TransconductanceAmplifier(
            self.design,
            degeneration_resistance=self.design.degeneration_resistance,
            bias_memo=self._gm_bias_memo)

    @property
    def transconductor(self) -> TransconductanceAmplifier:
        """The Gm stage as configured for the current mode."""
        return self.transconductor_for(self._mode)

    def transconductor_for(self, mode: MixerMode) -> TransconductanceAmplifier:
        """The Gm stage as configured for ``mode``."""
        return self._tca_active if mode is MixerMode.ACTIVE \
            else self._tca_passive

    def gm_device_sized(self) -> bool:
        """Whether both TCA configurations already hold a solved Gm device."""
        return self._tca_active.device_sized and self._tca_passive.device_sized

    def seed_gm_width(self, width: float) -> None:
        """Install an externally solved Gm-device width (batched sizing).

        The width solve depends only on the design record — not on the mode
        or the degeneration — so one :func:`~repro.core.transconductance.\
solve_widths` element seeds both TCA configurations with one shared
        (immutable) device instance, exactly the device each lazy scalar
        solve would have produced.
        """
        device = Mosfet.nmos(float(width), self.design.gm_device_length,
                             self.design.technology)
        self._tca_active.seed_device(device)
        self._tca_passive.seed_device(device)

    @cached_property
    def switching_quad(self) -> SwitchingQuad:
        """The LO-commutated switching core."""
        return SwitchingQuad(self.design, LoDrive(self.design.lo_frequency))

    @cached_property
    def tia(self) -> TransimpedanceAmplifier:
        """The transimpedance stage (powered only in passive mode)."""
        return TransimpedanceAmplifier(self.design)

    @cached_property
    def load(self) -> TransmissionGateLoad:
        """The transmission-gate load (used only in active mode)."""
        return TransmissionGateLoad(self.design)

    # -- per-mode derived quantities ----------------------------------------------

    def _effective_gm(self, mode: MixerMode | None = None) -> float:
        return self.transconductor_for(mode or self._mode).effective_gm

    def _load_resistance(self, mode: MixerMode | None = None) -> float:
        mode = mode or self._mode
        if mode is MixerMode.ACTIVE:
            return self.design.load_resistance
        return self.design.feedback_resistance

    def if_filter(self, mode: MixerMode | None = None) -> FirstOrderLowPass:
        """The IF low-pass of a mode's output network (load or TIA)."""
        mode = mode or self._mode
        if mode is MixerMode.ACTIVE:
            return self.load.if_response()
        return self.tia.if_response()

    def _coupling_capacitance(self, mode: MixerMode | None = None) -> float:
        mode = mode or self._mode
        if mode is MixerMode.ACTIVE:
            return self.design.coupling_capacitance_active
        return self.design.coupling_capacitance_passive

    def _band_node_resistance(self, mode: MixerMode | None = None) -> float:
        mode = mode or self._mode
        if mode is MixerMode.ACTIVE:
            return self.design.band_node_resistance_active
        return self.design.band_node_resistance_passive

    # -- memoized spec intermediates ----------------------------------------------

    def spec_intermediates(self) -> SpecIntermediates:
        """The frequency-independent spec scalars of the current mode.

        Computed once per mode — by :func:`solve_intermediates` as a block
        of one — and cached for the lifetime of the mixer (the design
        record is frozen, so nothing can invalidate the entry).
        Both the scalar spec accessors and the vectorized array variants read
        this cache; the sweep engine relies on it to keep per-grid-cell work
        down to pure NumPy array maths.
        """
        cached = self._intermediates.get(self._mode)
        if cached is None:
            solve_intermediates([self], self._mode)
            cached = self._intermediates[self._mode]
        return cached

    def seed_intermediates(self, intermediates: SpecIntermediates) -> None:
        """Install externally solved intermediates (the on-disk spec cache).

        Seeding the per-mode memo is what lets a warm-cache sweep skip the
        device sizing solve entirely: every spec accessor reads
        :meth:`spec_intermediates` first, and with the entry present nothing
        ever touches the sized device.  The caller is responsible for the
        entry matching this mixer's design record; the mode is taken from the
        record itself.
        """
        if not isinstance(intermediates, SpecIntermediates):
            raise TypeError("seed_intermediates() needs a SpecIntermediates")
        self._intermediates[intermediates.mode] = intermediates

    def peek_intermediates(self, mode: MixerMode) -> SpecIntermediates | None:
        """The memoized intermediates for ``mode``, or ``None`` if unsolved.

        A pure read: unlike :meth:`spec_intermediates` this never computes,
        so the sweep engine's pre-sizing pass can test cache coverage
        without triggering the very solves it is trying to batch.
        """
        return self._intermediates.get(mode)

    # -- conversion gain -------------------------------------------------------------

    def peak_conversion_gain_db(self) -> float:
        """In-band, low-IF conversion gain (dB): ``(2/pi) * gm_eff * R_load``."""
        return self.spec_intermediates().peak_gain_db

    def conversion_gain_db_array(self, rf_frequency: float | np.ndarray,
                                 if_frequency: float | np.ndarray) -> np.ndarray:
        """Vectorized conversion gain (dB) over RF/IF frequency arrays.

        ``rf_frequency`` and ``if_frequency`` broadcast against each other
        under the usual NumPy rules, so a full Fig. 8 x Fig. 9 plane is one
        call with ``rf[:, None]`` against ``if_[None, :]``.  The scalar
        :meth:`conversion_gain_db` is a thin wrapper around this method, so
        both paths are numerically identical.
        """
        rf = np.asarray(rf_frequency, dtype=float)
        if_freq = np.asarray(if_frequency, dtype=float)
        if np.any(rf <= 0) or np.any(if_freq <= 0):
            raise ValueError("frequencies must be positive")
        cell = self.spec_intermediates()
        return conversion_gain_db_from(
            cell.peak_gain_db, cell.band_low_hz, cell.band_high_hz,
            self.if_filter().pole_frequency, rf, if_freq)

    def conversion_gain_db(self, rf_frequency: float | None = None,
                           if_frequency: float | None = None) -> float:
        """Conversion gain (dB) at an RF and IF frequency.

        ``rf_frequency`` applies the wide-band response of Fig. 8;
        ``if_frequency`` applies the IF roll-off of the load / TIA feedback
        pole that shapes Fig. 9.  Omitted arguments default to the design's
        nominal operating point (2.405 GHz RF, 5 MHz IF).  Thin scalar
        wrapper over :meth:`conversion_gain_db_array`.
        """
        rf = rf_frequency if rf_frequency is not None else self.design.rf_frequency
        if_freq = if_frequency if if_frequency is not None \
            else self.design.if_frequency
        return float(self.conversion_gain_db_array(rf, if_freq))

    def band_edges(self) -> tuple[float, float]:
        """-3 dB RF band edges (Hz) of the current mode."""
        intermediates = self.spec_intermediates()
        return intermediates.band_low_hz, intermediates.band_high_hz

    # -- noise figure -------------------------------------------------------------------

    def flicker_corner_hz(self) -> float:
        """1/f corner frequency of the current mode (Hz)."""
        return self.spec_intermediates().flicker_corner_hz

    def noise_figure_db_array(self, if_frequency: float | np.ndarray) -> np.ndarray:
        """Vectorized DSB noise figure (dB) over an IF frequency array.

        One call evaluates the whole Fig. 9 NF curve; the scalar
        :meth:`noise_figure_db` wraps this method, so both paths agree
        exactly.
        """
        intermediates = self.spec_intermediates()
        return np.asarray(nf_with_flicker(intermediates.white_nf_db,
                                          intermediates.flicker_corner_hz,
                                          np.asarray(if_frequency, dtype=float)))

    def noise_figure_db(self, if_frequency: float | None = None) -> float:
        """DSB noise figure (dB) at an IF frequency, including the 1/f rise."""
        if_freq = if_frequency if if_frequency is not None \
            else self.design.if_frequency
        return float(self.noise_figure_db_array(if_freq))

    # -- linearity ----------------------------------------------------------------------

    def gm_stage_iip3_dbm(self) -> float:
        """IIP3 of the (possibly degenerated) Gm stage alone (dBm)."""
        return self.transconductor.iip3_dbm()

    def iip3_dbm(self) -> float:
        """Composite input-referred IIP3 (dBm) of the current mode; memoized.

        The contributions (Gm stage, quad on-resistance modulation, output
        network) are combined with the standard voltage-domain rule
        ``1/A_total^2 = sum(1/A_k^2)`` since all are referred to the same
        input port.
        """
        return self.spec_intermediates().iip3_dbm

    def iip2_dbm(self) -> float:
        """Input-referred IIP2 (dBm), limited by differential mismatch.

        A perfectly balanced differential circuit cancels even-order
        products; the residue is the single-ended second-order term of the
        Gm device scaled by the fractional mismatch.
        """
        return self.spec_intermediates().iip2_dbm

    def p1db_dbm(self) -> float:
        """Analytic estimate of the input 1 dB compression point (dBm).

        The smaller of the third-order estimate (IIP3 - 9.6 dB) and the
        output-swing-limited value; the paper attributes the low-IF
        compression to the OTA output swing.
        """
        return self.spec_intermediates().p1db_dbm

    # -- power -----------------------------------------------------------------------------

    def power_mw(self) -> float:
        """Supply power of the current mode (mW); see :mod:`repro.core.power`."""
        return self.spec_intermediates().power_mw

    # -- aggregate -----------------------------------------------------------------------------

    def specs(self) -> MixerSpecs:
        """All headline specs of the current mode at the nominal operating point."""
        band_low, band_high = self.band_edges()
        return MixerSpecs(
            mode=self._mode,
            conversion_gain_db=self.conversion_gain_db(),
            noise_figure_db=self.noise_figure_db(),
            iip3_dbm=self.iip3_dbm(),
            iip2_dbm=self.iip2_dbm(),
            p1db_dbm=self.p1db_dbm(),
            power_mw=self.power_mw(),
            band_low_hz=band_low,
            band_high_hz=band_high,
            flicker_corner_hz=self.flicker_corner_hz(),
        )

    def paper_targets(self) -> PaperTargets:
        """The paper's reported numbers for the current mode."""
        return paper_targets(self._mode)

    # -- waveform-level model ----------------------------------------------------------------

    def waveform_device(self, sample_rate: float,
                        lo_frequency: float | None = None,
                        rf_band_frequency: float | None = None,
                        assume_periodic: bool = False
                        ) -> Callable[[np.ndarray], np.ndarray]:
        """Build a waveform-in/waveform-out model of the current configuration.

        The returned callable maps a sampled differential RF voltage to the
        sampled differential IF output voltage:

        1. the Gm-stage polynomial nonlinearity (third-order coefficient from
           the device Taylor expansion, scaled by the wide-band response at
           ``rf_band_frequency``);
        2. the passive quad's on-resistance nonlinearity (passive mode only);
        3. LO commutation by the band-limited switching function;
        4. scaling by ``gm_eff * R_load`` (the 2/pi factor is produced by the
           commutation itself);
        5. the IF low-pass of the load / TIA feedback network;
        6. the output-network third-order term (active mode) and a hard
           output-swing limiter.

        The same callable is what the IIP3, IIP2, P1dB and spot conversion
        gain benches measure, so those numbers are read off spectra exactly
        like the paper's simulations.

        Time runs along the **last** axis: a ``(powers, samples)`` block is
        processed in one call with every row identical to a solo evaluation,
        which is how the batched waveform engine (:mod:`repro.waveform`)
        evaluates a whole input-power sweep without a Python loop.

        ``assume_periodic=True`` declares that every input record is exactly
        one period of the waveform (true by construction on the coherently
        sampled grids the benches build): the cyclic prefix is then dropped
        and the IF filter applied as its steady-state periodic response
        (:meth:`~repro.rf.filters.FirstOrderLowPass.apply_periodic`), which
        matches the prefixed evaluation to double precision at half the
        samples — the batched engine's fast path.  Leave it ``False`` for
        arbitrary (aperiodic) records.
        """
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        lo = lo_frequency if lo_frequency is not None else self.design.lo_frequency
        if lo >= sample_rate / 2.0:
            raise ValueError("sample rate must be more than twice the LO frequency")
        rf_band = rf_band_frequency if rf_band_frequency is not None \
            else self.design.rf_frequency

        mode = self._mode
        tca = self.transconductor
        coefficients = tca.taylor_coefficients()
        gm_ratio_a3 = coefficients.g3 / coefficients.g1 if coefficients.g1 else 0.0
        # Residual even-order term: the differential topology cancels the
        # device's g2 except for the fractional mismatch between the two
        # half-circuits; this is what bounds the measured IIP2.
        gm_ratio_a2 = 0.0
        if coefficients.g1:
            gm_ratio_a2 = self.design.differential_mismatch * \
                coefficients.g2 / coefficients.g1
        band = float(tca.band_response(rf_band, self._coupling_capacitance(),
                                       self._band_node_resistance()))
        gm_eff = self._effective_gm()
        load_resistance = self._load_resistance()
        if_filter = self.if_filter()
        quad = SwitchingQuad(self.design, LoDrive(lo))
        swing = self.design.output_swing_limit

        quad_a3 = 0.0
        quad_iip3 = quad.iip3_dbm(mode)
        if not math.isinf(quad_iip3):
            amplitude = float(vpeak_from_dbm(quad_iip3))
            quad_a3 = -4.0 / (3.0 * amplitude ** 2)

        output_a3 = 0.0
        if mode is MixerMode.ACTIVE:
            output_intercept = self.load.output_intercept_vpeak()
            output_a3 = -4.0 / (3.0 * output_intercept ** 2)

        gain = gm_eff * load_resistance
        # Per-record-length memo of the time grid and LO switching function
        # for the periodic (engine) path: the batched engine evaluates many
        # cache-sized chunks of identical length through one device, and
        # these waveforms depend only on the length.  The general-purpose
        # path recomputes them per call, as a point bench always has.
        periodic_state: dict[int, np.ndarray] = {}

        def _switching(length: int) -> np.ndarray:
            switching = periodic_state.get(length)
            if switching is None:
                times = np.arange(length) / sample_rate
                switching = quad.commutate(np.ones(length), times)
                periodic_state[length] = switching
            return switching

        def _periodic_device(original: np.ndarray) -> np.ndarray:
            # The engine's fast path: same model, written with in-place
            # array maths on the un-prefixed record (the steady-state
            # filter replaces the cyclic prefix, see
            # FirstOrderLowPass.apply_periodic) — agreement with the
            # general-purpose path is pinned well below measurement
            # resolution.
            v = original * band
            square = v * v
            even_order = np.multiply(square, gm_ratio_a2)
            cube = np.multiply(square, v, out=square)
            v += np.multiply(cube, gm_ratio_a3, out=cube)
            if quad_a3 != 0.0:
                square = v * v
                cube = np.multiply(square, v, out=square)
                v += np.multiply(cube, quad_a3, out=cube)
            v *= _switching(original.shape[-1])
            v += even_order
            v *= gain
            out = if_filter.apply_periodic(v, sample_rate)
            if output_a3 != 0.0:
                square = out * out
                cube = np.multiply(square, out, out=square)
                out += np.multiply(cube, output_a3, out=cube)
            out /= swing
            square = out * out
            sixth = np.multiply(square, square)
            np.multiply(sixth, square, out=sixth)
            sixth += 1.0
            np.sqrt(sixth, out=sixth)
            np.cbrt(sixth, out=sixth)
            np.divide(out, sixth, out=out)
            out *= swing
            return out

        def device(waveform: np.ndarray) -> np.ndarray:
            original = np.asarray(waveform, dtype=float)
            if assume_periodic:
                return _periodic_device(original)
            # Prepend one full copy of the record as a cyclic prefix so the
            # IF filter reaches its periodic steady state before the
            # measured block starts; measurement grids are coherently
            # sampled, so the record is exactly periodic and the prefix is
            # free of artefacts.
            v = np.concatenate([original, original], axis=-1) * band
            # Gm-stage nonlinearity (voltage-normalised: unity linear term).
            # The residual even-order product (mismatch-scaled) reaches the IF
            # port without frequency conversion — the classic IM2 feedthrough
            # mechanism of an imperfectly balanced quad — so it is added after
            # the commutation rather than inside the converted path.  Odd
            # powers are spelled as products: np.power falls back to the slow
            # libm path on signed bases, and these run per sample per sweep
            # point.
            even_order = gm_ratio_a2 * (v * v)
            v = v + gm_ratio_a3 * (v * v * v)
            if quad_a3 != 0.0:
                v = v + quad_a3 * (v * v * v)
            times = np.arange(v.shape[-1]) / sample_rate
            commutated = quad.commutate(v, times) + even_order
            scaled = commutated * gain
            filtered = if_filter.apply(scaled, sample_rate)
            if output_a3 != 0.0:
                out = filtered + output_a3 * (filtered * filtered * filtered)
            else:
                out = filtered
            # Hard-ish swing limit: negligible odd-order distortion until the
            # signal approaches the rail, then compression (models the OTA /
            # output-stage clipping the paper blames for the low-IF P1dB).
            # x^(1/6) as cbrt(sqrt(x)): hardware sqrt + libm cbrt beat pow.
            ratio = out / swing
            ratio_squared = ratio * ratio
            sixth = ratio_squared * ratio_squared * ratio_squared
            out = swing * ratio / np.cbrt(np.sqrt(1.0 + sixth))
            return out[..., original.shape[-1]:]

        return device

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReconfigurableMixer(mode={self._mode.value})"


#: Minimum number of pending designs before the Gm-stage block solvers
#: take over from the lazy per-cell scalar path.  A single design gains
#: nothing from them (their array loops lose to the scalar code), so solo
#: requests solve their Gm stage lazily.  The spec intermediates are one
#: :func:`solve_intermediates` pass at any block size.
BATCH_THRESHOLD = 2


def presolve_cells(
        cells: Iterable[tuple[str, ReconfigurableMixer, MixerMode]]) -> int:
    """Block-solve the Gm stage of every pending ``(label, mixer, mode)`` cell.

    The one pre-solve pass of the sweep and waveform engines, run before
    their cell loops over the cells no memo or engine cache covers.  When
    at least :data:`BATCH_THRESHOLD` distinct designs still need work, one
    :func:`~repro.core.transconductance.solve_widths` call sizes the
    unsized ones and one
    :func:`~repro.core.transconductance.solve_gm_block` call solves every
    bias point and Taylor expansion, seeding the mixers' memos with exactly
    the doubles the lazy scalar path would compute — so cell results do
    not depend on which path ran.  Below the threshold nothing happens and
    the cells solve lazily.  Returns the number of designs block-solved.
    """
    block: dict[int, tuple[str, ReconfigurableMixer,
                           list[TransconductanceAmplifier]]] = {}
    for label, mixer, mode in cells:
        tca = mixer.transconductor_for(mode)
        if tca.gm_stage_solved:
            continue
        stages = block.setdefault(id(mixer), (label, mixer, []))[2]
        if tca not in stages:
            stages.append(tca)
    if len(block) < BATCH_THRESHOLD:
        return 0
    unsized = [(label, mixer) for label, mixer, _ in block.values()
               if not mixer.gm_device_sized()]
    if unsized:
        widths = solve_widths([mixer.design for _, mixer in unsized],
                              labels=[label for label, _ in unsized])
        for (_, mixer), width in zip(unsized, widths):
            mixer.seed_gm_width(float(width))
    stages = [(label, tca) for label, _, tcas in block.values()
              for tca in tcas]
    solve_gm_block([tca for _, tca in stages],
                   [label for label, _ in stages])
    return len(block)


def solve_intermediates(mixers: Iterable[ReconfigurableMixer],
                        mode: MixerMode) -> int:
    """Compute ``mode``'s :class:`SpecIntermediates` for a block of mixers.

    Every mixer lacking the entry (each distinct mixer once) gets it in
    one NumPy pass: the closed forms run elementwise, each element through
    the same IEEE operation sequence, so a block of N is bitwise N blocks
    of one.  Gm-stage memos are read as they stand, solved lazily where
    :func:`presolve_cells` has not seeded them.  Returns how many mixers
    were filled; :meth:`ReconfigurableMixer.spec_intermediates` is the
    block of one.
    """
    pending = list({id(mixer): mixer for mixer in mixers
                    if mixer.peek_intermediates(mode) is None}.values())
    if not pending:
        return 0
    passive = mode is MixerMode.PASSIVE
    rows = []
    for mixer in pending:
        design, quad = mixer.design, mixer.switching_quad
        stage = mixer.transconductor_for(mode)
        taylor = stage.taylor_coefficients()
        rows.append([
            taylor.g1, taylor.g2, taylor.g3, stage.raw_gm,
            stage.degeneration_resistance, mixer._load_resistance(mode),
            mixer._coupling_capacitance(mode),
            mixer._band_node_resistance(mode), design.parasitic_capacitance,
            design.technology.gamma_noise, quad.noise_excess_factor(mode),
            quad.flicker_corner(mode), quad.iip3_dbm(mode),
            design.differential_mismatch, design.output_swing_limit,
            PowerBudget(design).total_mw(mode),
            # Terms one mode lacks: zero noise, an infinite intercept.
            *((quad.switch_on_resistance, mixer.tia.ota.input_noise_density,
               design.technology.temperature, math.inf) if passive else
              (0.0, 0.0, 0.0, mixer.load.output_intercept_vpeak()))])
    (g1, g2, g3, gm, r_deg, r_load, c_couple, r_node, c_par, gamma,
     excess, flicker_corner, quad_iip3, mismatch, swing, power, r_on,
     ota_noise, temperature, output_intercept) = \
        np.array(rows, dtype=float).T.copy()

    rs = REFERENCE_IMPEDANCE
    gm_eff = gm / (1.0 + gm * r_deg)
    conversion = SWITCHING_FACTOR * gm_eff
    gain = conversion * r_load
    band_low, band_high = band_edges_from(c_couple, r_node, c_par)

    # Noise factor referred to the 50 ohm source: Gm-device channel noise,
    # commutation excess (calibrated LO noise folding), the degeneration
    # and the quad switches' R_on (passive), the load or R_F referred
    # through the conversion gain, and the OTA input noise (passive).
    factor = 1.0 + 2.0 * gamma / (gm * rs)
    factor += excess
    factor += 2.0 * r_deg / rs
    factor += 4.0 * r_on / rs
    factor += 2.0 / (squared(conversion) * r_load * rs)
    if passive:
        factor += 2.0 * squared(ota_noise) / (
            4.0 * BOLTZMANN * temperature * rs * squared(gain))

    with np.errstate(divide="ignore", invalid="ignore"):
        # IIP3: the Gm stage, the quad's R_on modulation (passive) and the
        # output network (active; in passive mode the TIA feedback
        # suppresses it) combine as 1/A^2 = sum(1/A_k^2) at the input; an
        # infinite intercept contributes nothing.
        gm_stage_iip3 = np.where(g3 == 0.0, math.inf, dbm_from_vpeak(
            np.sqrt((4.0 / 3.0) * np.abs(g1 / g3))))
        inverse_sum = 0.0
        for term in (gm_stage_iip3, quad_iip3,
                     dbm_from_vpeak(output_intercept / gain)):
            inverse_sum = inverse_sum + np.where(
                np.isinf(term), 0.0, 1.0 / squared(vpeak_from_dbm(term)))
        iip3 = np.where(inverse_sum == 0.0, math.inf,
                        dbm_from_vpeak(np.sqrt(1.0 / inverse_sum)))
        # IIP2: the mismatch-scaled residue of the single-ended g2 term.
        iip2 = np.where((mismatch <= 0) | (g2 == 0.0), math.inf,
                        dbm_from_vpeak(np.abs(g1 / g2) / mismatch))
    # P1dB: the smaller of IIP3 - 9.6 dB and the swing limit, which the
    # waveform model's 6th-order clip compresses by 1 dB at ~98 %.
    third_order = iip3 - 9.6
    swing_limited = dbm_from_vpeak(0.98 * swing / gain)
    p1db = np.where(swing_limited < third_order, swing_limited, third_order)

    columns = (db_from_voltage_ratio(gain), band_low, band_high,
               noise_figure_from_factor(factor), flicker_corner, iip3, iip2,
               p1db, power)
    for mixer, values in zip(pending, zip(*(c.tolist() for c in columns))):
        mixer.seed_intermediates(SpecIntermediates(mode, *values))
    return len(pending)
