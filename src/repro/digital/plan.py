"""Digital-IF plans: declarative descriptions of one down-conversion bench.

A :class:`DigitalIfPlan` is everything the fixed-point backend needs besides
the device under test: the analog stimulus (a coherent single-tone
:class:`~repro.waveform.plan.StimulusPlan`, evaluated once through the
waveform engine's time-domain tap), the ADC sampling/quantization setup,
the NCO and mixer bit widths, and the CIC decimator configuration.  Like
stimulus plans, digital plans are frozen records of plain numbers, so they

* travel unchanged to the worker processes of
  :class:`~repro.digital.parallel.ParallelDigitalRunner`,
* hash stably (:meth:`DigitalIfPlan.content_hash`) — the hash *includes*
  the embedded stimulus plan's canonical form, so the digital cache key
  covers the analog bench and every digital parameter in one digest — and
* round-trip exactly through :meth:`to_dict` / :meth:`from_dict`.

A plan is a table of *lanes*, one per ``adc_bits`` entry; ``lo_bits``,
``guard_bits`` and ``output_bits`` hold one int (every lane) or one width
per lane.  The quantizer, mixer and CIC broadcast over the lane axis, so
one plan evaluates a whole width sweep in a single vectorized pass.
Validation is deliberately strict — non-integer NCO increments, off-bin
basebands, a lane's registers past 62 bits or decimators that do not
divide the record are refused at construction, because each would
silently corrupt the exact-arithmetic guarantees downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.digital.blocks import cic_growth_bits, phase_increment
from repro.waveform.plan import (
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SAMPLE_RATE,
    SINGLE_TONE,
    StimulusPlan,
    single_tone_plan,
)

#: Schema/semantics version folded into every digital plan hash; bump on any
#: change to what the numbers mean so stale cache entries miss, never mislead.
DIGITAL_PLAN_VERSION = 1

#: Measure arrays every digital-IF evaluation produces, in storage order.
DIGITAL_MEASURES: tuple[str, ...] = (
    "snr_db",
    "signal_dbfs",
    "noise_dbfs",
    "noise_dbm",
    "float_error_peak",
    "overflow_fraction",
)

#: Default ADC full-scale in volts peak.  A fixed constant rather than a
#: per-design value on purpose: the digital grid must not depend on the
#: device under test, so a batched design sweep and a solo run quantize
#: against the identical reference and stay bit-identical.  (1.25 V matches
#: the paper's supply-limited output swing.)
DEFAULT_ADC_FULL_SCALE = 1.25

#: The widest int64-safe register budget: products and CIC registers are
#: modelled in 64-bit arithmetic with two sign/rounding bits in hand.
_REGISTER_BUDGET = 62

#: The widths a plan may give per lane (an int applies to every lane).
LANE_WIDTHS = ("lo_bits", "guard_bits", "output_bits")


def _lane_width(value) -> int | tuple[int, ...]:
    """One width for every lane (an int) or one per lane (a tuple)."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    return tuple(int(b) for b in value)


@dataclass(frozen=True)
class DigitalIfPlan:
    """One digital-IF down-conversion bench, fully specified.

    Attributes
    ----------
    stimulus:
        The analog bench feeding the ADC: a coherent single-tone plan with
        an LO (the mixer's IF output is what gets digitized), carrying
        exactly one input power.
    adc_stride:
        The ADC samples every ``adc_stride``-th point of the analog grid
        (must divide ``stimulus.num_samples``), i.e. the converter runs at
        ``stimulus.sample_rate / adc_stride``.
    records:
        Number of analog records tiled into the measurement window.  One
        extra record is always prepended and discarded as CIC warm-up, so
        the analysed window holds exactly ``records`` periods in decimator
        steady state.
    adc_bits:
        Each lane's ADC resolution — the bit-width axis of the resulting
        :class:`~repro.digital.result.DigitalResult`.  Distinct unless a
        :data:`LANE_WIDTHS` field is per-lane.
    adc_full_scale:
        Converter full scale in volts peak (mid-rise codes clip outside
        ``±adc_full_scale``).
    lo_bits / phase_bits / table_bits:
        NCO quantization: LO sample width (per lane), phase-accumulator
        width and the number of accumulator MSBs addressing the LO lookup.
    guard_bits:
        Growth bits retained past the ADC width in the mixer product
        (register width ``adc_bits + guard_bits``), per lane.
    cic_stages / cic_decimation:
        The CIC decimator order and rate change.
    output_bits:
        Output register width, per lane; the CIC result is right-shifted
        (with rounding) into it.
    nco_frequency_hz:
        Digital LO frequency; must be exactly representable in
        ``phase_bits`` at the ADC rate.
    """

    stimulus: StimulusPlan
    adc_stride: int
    records: int
    adc_bits: tuple[int, ...]
    adc_full_scale: float
    lo_bits: int | tuple[int, ...]
    phase_bits: int
    table_bits: int
    guard_bits: int | tuple[int, ...]
    cic_stages: int
    cic_decimation: int
    output_bits: int | tuple[int, ...]
    nco_frequency_hz: float

    def __post_init__(self) -> None:
        if not isinstance(self.stimulus, StimulusPlan):
            raise TypeError("stimulus must be a StimulusPlan")
        if self.stimulus.kind != SINGLE_TONE:
            raise ValueError("digital-IF plans digitize a single-tone bench")
        if self.stimulus.lo_frequency is None:
            raise ValueError("the stimulus needs an LO: the ADC digitizes "
                             "the mixer's IF output")
        if len(self.stimulus.input_powers_dbm) != 1:
            raise ValueError("digital-IF plans carry exactly one input power")
        if not self.stimulus.is_coherent():
            raise ValueError("the stimulus record must be coherent: the "
                             "digital window tiles whole records")
        if self.adc_stride < 1:
            raise ValueError("adc_stride must be at least 1")
        if self.stimulus.num_samples % self.adc_stride:
            raise ValueError(
                f"adc_stride {self.adc_stride} must divide the analog record "
                f"length {self.stimulus.num_samples}")
        if self.records < 1:
            raise ValueError("need at least one steady-state record")
        if not self.adc_bits:
            raise ValueError("need at least one ADC bit width")
        per_lane = [name for name in LANE_WIDTHS
                    if isinstance(getattr(self, name), tuple)]
        for name in per_lane:
            if len(getattr(self, name)) != len(self.adc_bits):
                raise ValueError(f"{name} needs one width per ADC lane")
        if not per_lane and len(set(self.adc_bits)) != len(self.adc_bits):
            raise ValueError("ADC bit widths must be distinct")
        if self.adc_full_scale <= 0:
            raise ValueError("ADC full scale must be positive")
        if not 1 <= self.phase_bits <= 48:
            raise ValueError("phase_bits must lie in [1, 48]")
        if not 1 <= self.table_bits <= self.phase_bits:
            raise ValueError("table_bits must lie in [1, phase_bits]")
        if self.cic_stages < 1:
            raise ValueError("need at least one CIC stage")
        if self.cic_decimation < 1:
            raise ValueError("CIC decimation must be at least 1")
        samples = self.samples_per_record
        if samples % self.cic_decimation:
            raise ValueError(
                f"cic_decimation {self.cic_decimation} must divide the "
                f"per-record ADC sample count {samples}")
        if samples < self.cic_stages * self.cic_decimation:
            raise ValueError("each record must cover the CIC's impulse "
                             "response: need samples_per_record >= "
                             "cic_stages * cic_decimation")
        budget, growth = _REGISTER_BUDGET, self.growth_bits
        columns = (self.widths(name)[:, 0].tolist()
                   for name in ("adc_bits",) + LANE_WIDTHS)
        for lane, (adc, lo, guard, out) in enumerate(zip(*columns)):
            for broken, problem in (
                    (adc < 2, "ADC widths must be at least 2 bits"),
                    (not 2 <= lo <= 32, "lo_bits must lie in [2, 32]"),
                    (not 0 <= guard < lo,
                     "guard_bits must lie in [0, lo_bits - 1]"),
                    (adc + lo > budget,
                     f"adc_bits + lo_bits products must fit {budget} bits, "
                     f"got {adc} + {lo}"),
                    (adc + guard + growth > budget,
                     f"CIC register width {adc + guard + growth} exceeds "
                     f"the {budget}-bit exact-arithmetic budget (adc {adc} "
                     f"+ guard {guard} + growth {growth})"),
                    (not 2 <= out <= budget,
                     f"output_bits must lie in [2, {budget}]")):
                if broken:
                    raise ValueError(f"lane {lane}: {problem}")
        # Refuses non-representable NCO frequencies (exact-increment check).
        self.phase_increment()
        bins = self.baseband_frequency * self.output_samples \
            / self.output_sample_rate
        if abs(bins - round(bins)) > 1e-6:
            raise ValueError(
                f"baseband frequency {self.baseband_frequency:.6g} Hz is not "
                f"bin-exact over the {self.output_samples}-sample output "
                f"window at {self.output_sample_rate:.6g} S/s")

    # -- derived quantities ---------------------------------------------------

    @property
    def measures(self) -> tuple[str, ...]:
        """Names of the measure arrays this plan produces."""
        return DIGITAL_MEASURES

    @property
    def adc_sample_rate(self) -> float:
        """The converter's sampling rate."""
        return self.stimulus.sample_rate / self.adc_stride

    @property
    def samples_per_record(self) -> int:
        """ADC samples per analog record."""
        return self.stimulus.num_samples // self.adc_stride

    @property
    def output_sample_rate(self) -> float:
        """Sample rate of the decimated baseband output."""
        return self.adc_sample_rate / self.cic_decimation

    @property
    def output_samples(self) -> int:
        """Baseband samples in the analysed (post-warm-up) window."""
        return self.records * self.samples_per_record // self.cic_decimation

    @property
    def warmup_samples(self) -> int:
        """Baseband samples discarded while the CIC settles (one record)."""
        return self.samples_per_record // self.cic_decimation

    @property
    def if_frequency(self) -> float:
        """The analog IF landing at the ADC input."""
        return self.stimulus.product_frequencies()["output"]

    @property
    def baseband_frequency(self) -> float:
        """Where the signal lands after digital down-conversion (signed)."""
        return self.if_frequency - self.nco_frequency_hz

    @property
    def signal_bin(self) -> int:
        """FFT bin of the signal over the output window (wrapped index)."""
        bins = round(self.baseband_frequency * self.output_samples
                     / self.output_sample_rate)
        return int(bins) % self.output_samples

    @property
    def growth_bits(self) -> int:
        """Hogenauer register growth of the configured CIC."""
        return cic_growth_bits(self.cic_stages, self.cic_decimation)

    def widths(self, name: str) -> np.ndarray:
        """Each lane's ``name`` width as an ``(lanes, 1)`` int64 column."""
        column = np.empty((len(self.adc_bits), 1), dtype=np.int64)
        column[:, 0] = getattr(self, name)
        return column

    def phase_increment(self) -> int:
        """The NCO accumulator increment (validated exact)."""
        return phase_increment(self.nco_frequency_hz, self.adc_sample_rate,
                               self.phase_bits)

    def bits(self) -> np.ndarray:
        """The swept ADC widths as a float array (sweep-axis coordinates)."""
        return np.asarray(self.adc_bits, dtype=float)

    def with_adc_bits(self, adc_bits: Sequence[int]) -> "DigitalIfPlan":
        """Copy of the plan over a different ADC bit-width sweep."""
        return replace(self, adc_bits=tuple(int(b) for b in adc_bits))

    # -- identity / wire format -----------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready canonical form (also the hashed content)."""
        return {
            "digital_plan_version": DIGITAL_PLAN_VERSION,
            "stimulus": self.stimulus.to_dict(),
            "adc_stride": int(self.adc_stride),
            "records": int(self.records),
            "adc_bits": [int(b) for b in self.adc_bits],
            "adc_full_scale": float(self.adc_full_scale),
            "lo_bits": _lane_width(self.lo_bits),
            "phase_bits": int(self.phase_bits),
            "table_bits": int(self.table_bits),
            "guard_bits": _lane_width(self.guard_bits),
            "cic_stages": int(self.cic_stages),
            "cic_decimation": int(self.cic_decimation),
            "output_bits": _lane_width(self.output_bits),
            "nco_frequency_hz": float(self.nco_frequency_hz),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DigitalIfPlan":
        """Rebuild a plan from :meth:`to_dict` output (validates as always)."""
        version = payload.get("digital_plan_version", DIGITAL_PLAN_VERSION)
        if version != DIGITAL_PLAN_VERSION:
            raise ValueError(f"unsupported digital_plan_version {version!r}")
        return cls(
            stimulus=StimulusPlan.from_dict(payload["stimulus"]),
            adc_stride=int(payload["adc_stride"]),
            records=int(payload["records"]),
            adc_bits=tuple(int(b) for b in payload["adc_bits"]),
            adc_full_scale=float(payload["adc_full_scale"]),
            lo_bits=_lane_width(payload["lo_bits"]),
            phase_bits=int(payload["phase_bits"]),
            table_bits=int(payload["table_bits"]),
            guard_bits=_lane_width(payload["guard_bits"]),
            cic_stages=int(payload["cic_stages"]),
            cic_decimation=int(payload["cic_decimation"]),
            output_bits=_lane_width(payload["output_bits"]),
            nco_frequency_hz=float(payload["nco_frequency_hz"]),
        )

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical plan content.

        Covers the embedded analog stimulus *and* every digital parameter:
        any change — a tone, the ADC rate, one bit of any width, the CIC
        shape — maps to a different hash, so cached measures can never be
        served for the wrong bench.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digital_if_plan(rf_frequency: float = 2.405e9,
                    lo_frequency: float = 2.4e9,
                    input_power_dbm: float = -20.0,
                    sample_rate: float = DEFAULT_SAMPLE_RATE,
                    num_samples: int = DEFAULT_NUM_SAMPLES,
                    adc_stride: int = 64,
                    records: int = 8,
                    adc_bits: Sequence[int] = (4, 6, 8, 10, 12, 14, 16),
                    adc_full_scale: float = DEFAULT_ADC_FULL_SCALE,
                    lo_bits: int | Sequence[int] = 16,
                    phase_bits: int = 32,
                    table_bits: int = 14,
                    guard_bits: int | Sequence[int] = 4,
                    cic_stages: int = 3,
                    cic_decimation: int = 20,
                    output_bits: int | Sequence[int] = 16,
                    nco_frequency_hz: float = 3.75e6) -> DigitalIfPlan:
    """The canonical digital-IF bench over the paper's frequency plan.

    Defaults digitize the 2.4 GHz LO / 5 MHz IF artefact bench at
    160 MS/s (``adc_stride=64`` on the 10.24 GS/s analog grid), sweep the
    converter from 4 to 16 bits against a 16-bit NCO, and decimate by 20
    through a third-order CIC to an 8 MS/s complex baseband.  The NCO sits
    at 3.75 MHz so the signal lands at 1.25 MHz — off DC (away from the
    mid-rise quantizer's offset) and off the real-IF image alias.
    """
    stimulus = single_tone_plan(
        frequency_hz=rf_frequency,
        input_powers_dbm=[float(input_power_dbm)],
        sample_rate=sample_rate,
        num_samples=num_samples,
        lo_frequency=lo_frequency,
    )
    return DigitalIfPlan(
        stimulus=stimulus,
        adc_stride=int(adc_stride),
        records=int(records),
        adc_bits=tuple(int(b) for b in adc_bits),
        adc_full_scale=float(adc_full_scale),
        lo_bits=_lane_width(lo_bits),
        phase_bits=int(phase_bits),
        table_bits=int(table_bits),
        guard_bits=_lane_width(guard_bits),
        cic_stages=int(cic_stages),
        cic_decimation=int(cic_decimation),
        output_bits=_lane_width(output_bits),
        nco_frequency_hz=float(nco_frequency_hz),
    )
