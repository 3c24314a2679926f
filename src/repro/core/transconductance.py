"""The fully differential transconductance amplifier (TCA, Fig. 3).

The TCA converts the differential RF voltage into a differential current
that the switching quad commutates.  Its behavioural description is derived
from the 65 nm device model:

* the device width is solved so that the target ``gm`` is reached at the
  allotted bias current (the paper tunes the active-mode gain through this
  bias voltage) — in closed form from the saturated gm/Id, with a width
  bisection as the fallback outside that domain (:func:`gm_device_width`);
* the third-order nonlinearity comes from a numerical Taylor expansion of
  the device I-V around the bias point — mobility degradation (``theta``)
  is the physical mechanism — and source degeneration improves it the way
  the passive mode exploits;
* thermal and flicker noise densities come straight from the device model;
* the wide-band frequency response is set by the input coupling network
  (lower band edge) and the parasitic capacitance C_PAR at the output node
  (upper band edge), which the paper explicitly minimises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.devices.mosfet import Mosfet, MosfetArray, MosfetOperatingPoint
from repro.devices.noise import FlickerNoise, ThermalNoise
from repro.devices.technology import Technology
from repro.units import REFERENCE_IMPEDANCE, dbm_from_vpeak
from repro.core.config import MixerDesign

#: Process-wide count of Gm-device sizing solves (one per device sized,
#: whether through the lazy scalar path or a :func:`solve_widths` block).
#: The on-disk spec cache exists to avoid these; tests and benchmarks read
#: the counter to prove a warm-cache run performs none.
_SIZING_SOLVES = 0

#: Process-wide count of batched :func:`solve_widths` calls.  One call sizes
#: a whole design block, so the batched counter grows by 1 where
#: ``_SIZING_SOLVES`` grows by the block length.
_BATCHED_SIZING_SOLVES = 0

#: Width search range of the Gm device (m): the closed form is trusted only
#: inside it, and the fallback bisection brackets exactly this range.
_MIN_WIDTH, _MAX_WIDTH = 2e-6, 2000e-6

_UNREACHABLE = "target gm unreachable within the width search range"

#: Central-difference step (V) of the Taylor expansion every spec reads.
TAYLOR_DELTA = 1e-3

#: Damped fixed-point budget of the degenerated I-V solve, and the
#: current change (A) that counts as converged.
_FIXED_POINT_ITERATIONS = 60
_FIXED_POINT_TOLERANCE = 1e-15


def sizing_solve_count() -> int:
    """How many Gm-device sizing solves this process has performed.

    Counts per *device*: a batched :func:`solve_widths` over N designs adds
    N, exactly what the equivalent scalar loop would have added — so the
    warm-cache "zero solves" gates hold regardless of which entry point a
    cold run used.
    """
    return _SIZING_SOLVES


def batched_sizing_solve_count() -> int:
    """How many batched :func:`solve_widths` calls this process has made."""
    return _BATCHED_SIZING_SOLVES


def gm_device_width(design: MixerDesign) -> float | None:
    """Width (m) at which one Gm device delivers ``tca_gm`` at its bias current.

    The saturated device has ``gm/Id = 2(1 + θv/2) / (v(1 + θv))`` in the
    overdrive ``v`` (λ cancels), so the target ratio ``r = gm/Id`` fixes
    ``v`` as the positive root of ``rθ·v² + (r − θ)·v − 2 = 0``; the bias
    current then fixes ``β`` and hence the width.  The root is written in
    its cancellation-free form ``4 / (b + sqrt(b² + 8rθ))``, ``b = r − θ``.

    The closed form answers when ``tca_gm >= 2·Id/v_ds`` — triode gm/Id
    stays below ``2/v_ds``, so the saturated root is the only root — and the
    width lands inside ``[2 µm, 2000 µm]``.  Anything else falls back to the
    width bisection (:func:`_bisect_width`), which also decides
    reachability.  Returns ``None`` when the target is unreachable.
    """
    technology = design.technology
    bias = design.tca_bias_current / 2.0
    vds = technology.mid_rail  # drain sits near mid-rail
    if design.tca_gm >= 2.0 * bias / vds:
        ratio = design.tca_gm / bias
        theta = technology.theta
        b = ratio - theta
        vov = 4.0 / (b + math.sqrt(b * b + 8.0 * ratio * theta))
        beta = 2.0 * bias * (1.0 + theta * vov) \
            / (vov * vov * (1.0 + technology.lambda_n * vds))
        width = beta * design.gm_device_length / technology.u_cox_n
        if _MIN_WIDTH <= width <= _MAX_WIDTH:
            return width
    return _bisect_width(design)


def _bisect_width(design: MixerDesign) -> float | None:
    """The general width solve: 80 geometric-mean bisection steps on width.

    Each step solves the gate bias for the per-side current and reads gm
    (which grows with width at fixed current); ``None`` when even the widest
    device misses the target.
    """
    technology = design.technology
    length = design.gm_device_length
    bias = design.tca_bias_current / 2.0
    vds = technology.mid_rail

    def gm_at_width(width: float) -> float:
        device = Mosfet.nmos(width, length, technology)
        vgs = device.vgs_for_current(bias, vds)
        return device.operating_point(vgs, vds).gm

    lo, hi = _MIN_WIDTH, _MAX_WIDTH
    if gm_at_width(hi) < design.tca_gm:
        return None
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if gm_at_width(mid) < design.tca_gm:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def solve_widths(designs: Sequence[MixerDesign],
                 labels: Sequence[str] | None = None) -> np.ndarray:
    """Gm-device widths for a whole block of designs.

    :func:`gm_device_width` per design — the same function the lazy
    :meth:`TransconductanceAmplifier._size_device` calls, so a pre-sized
    block is bit-identical to N scalar solves by construction.

    ``labels`` (optional, one per design) names offending designs in the
    ``target gm unreachable`` error; unlabeled designs are named by index
    and fingerprint.  Raises :class:`ValueError` listing every unreachable
    design.  Counts ``len(designs)`` device solves and one batched solve.
    """
    global _SIZING_SOLVES, _BATCHED_SIZING_SOLVES
    records = list(designs)
    if labels is not None and len(labels) != len(records):
        raise ValueError(
            f"got {len(labels)} labels for {len(records)} designs")
    if not records:
        return np.empty(0, dtype=float)

    widths = [gm_device_width(record) for record in records]
    unreachable = [index for index, width in enumerate(widths)
                   if width is None]
    if unreachable:
        def name(index: int) -> str:
            if labels is not None:
                return str(labels[index])
            return (f"design[{index}] "
                    f"(fingerprint {records[index].fingerprint()[:12]})")
        raise ValueError(f"{_UNREACHABLE} for: "
                         + ", ".join(name(index) for index in unreachable))
    _SIZING_SOLVES += len(records)
    _BATCHED_SIZING_SOLVES += 1
    return np.array(widths, dtype=float)


@dataclass(frozen=True)
class TaylorCoefficients:
    """Taylor expansion of the drain current around the bias point.

    ``i(v) ~= g1*v + g2*v^2 + g3*v^3`` for a small gate excursion ``v``.
    """

    g1: float
    g2: float
    g3: float

    def iip3_vpeak(self) -> float:
        """Input-referred third-order intercept amplitude (V peak)."""
        if self.g3 == 0.0:
            return math.inf
        return math.sqrt((4.0 / 3.0) * abs(self.g1 / self.g3))

    def iip3_dbm(self, impedance: float = REFERENCE_IMPEDANCE) -> float:
        """Input-referred IIP3 in dBm into ``impedance``."""
        amplitude = self.iip3_vpeak()
        if math.isinf(amplitude):
            return math.inf
        return float(dbm_from_vpeak(amplitude, impedance))


class TransconductanceAmplifier:
    """Behavioural model of the TCA / active-mode Gm stage.

    Parameters
    ----------
    design:
        The mixer design point (bias current, target gm, component values).
    degeneration_resistance:
        Source degeneration seen by each Gm device (0 for the plain active
        configuration; the PMOS switch resistance in passive mode).
    bias_memo:
        Where the solved bias point is memoized.  The bias depends on the
        device and the bias current, never on the degeneration, so the
        configurations of one design pass one shared dict and solve it
        once (the mixer does); omitted, the memo is private.
    """

    def __init__(self, design: MixerDesign,
                 degeneration_resistance: float = 0.0, *,
                 bias_memo: dict[str, MosfetOperatingPoint] | None = None
                 ) -> None:
        if degeneration_resistance < 0:
            raise ValueError("degeneration resistance cannot be negative")
        self.design = design
        self.degeneration_resistance = degeneration_resistance
        self.technology: Technology = design.technology
        self._bias_per_side = design.tca_bias_current / 2.0
        self._taylor_cache: dict[float, TaylorCoefficients] = {}
        self._bias_memo = bias_memo if bias_memo is not None else {}

    # -- device sizing --------------------------------------------------------

    @cached_property
    def device(self) -> Mosfet:
        """The Gm MOSFET, sized so the target gm is met at the bias current."""
        return self._size_device()

    @property
    def device_sized(self) -> bool:
        """Whether the Gm device is already solved (or seeded) — no solve."""
        return "device" in self.__dict__

    def seed_device(self, device: Mosfet) -> None:
        """Install an externally solved Gm device (the batched sizing path).

        The width solve depends only on the design record — length, target
        gm, bias current, technology — never on the degeneration, so one
        :func:`solve_widths` result seeds every TCA configuration of the
        same design.  The caller is responsible for the device matching what
        :meth:`_size_device` would return; :func:`solve_widths` guarantees
        that bit-for-bit.
        """
        if not isinstance(device, Mosfet):
            raise TypeError("seed_device() needs a Mosfet")
        # cached_property stores through the instance __dict__, so seeding
        # is exactly the state a lazy solve would have left behind.
        self.__dict__["device"] = device

    def _size_device(self) -> Mosfet:
        """The Gm device sized by :func:`gm_device_width`."""
        global _SIZING_SOLVES
        _SIZING_SOLVES += 1
        width = gm_device_width(self.design)
        if width is None:
            raise ValueError(_UNREACHABLE)
        return Mosfet.nmos(width, self.design.gm_device_length,
                           self.technology)

    @property
    def bias_point(self) -> MosfetOperatingPoint:
        """Operating point of one Gm device at the design bias."""
        point = self._bias_memo.get("bias_point")
        if point is None:
            vds = self.technology.mid_rail
            vgs = self.device.vgs_for_current(self._bias_per_side, vds)
            point = self.device.operating_point(vgs, vds)
            self._bias_memo["bias_point"] = point
        return point

    @property
    def bias_solved(self) -> bool:
        """Whether the bias point is already solved (or seeded) — no solve."""
        return "bias_point" in self._bias_memo

    @property
    def gm_stage_solved(self) -> bool:
        """Whether the bias point and the default Taylor expansion are both
        memoized, so no spec this stage feeds evaluates the device again."""
        return self.bias_solved and TAYLOR_DELTA in self._taylor_cache

    def seed_bias_point(self, point: MosfetOperatingPoint) -> None:
        """Install an externally solved bias point (the block solver path).

        The caller is responsible for ``point`` matching what
        :attr:`bias_point` would solve; :func:`solve_gm_block` guarantees
        that bit-for-bit.
        """
        self._bias_memo["bias_point"] = point

    # -- small-signal quantities ----------------------------------------------

    @property
    def raw_gm(self) -> float:
        """Undegenerate device transconductance (S)."""
        return self.bias_point.gm

    @property
    def effective_gm(self) -> float:
        """Transconductance including source degeneration (S)."""
        gm = self.raw_gm
        return gm / (1.0 + gm * self.degeneration_resistance)

    def gm_for_bias_voltage(self, vgs: float) -> float:
        """Effective gm at an arbitrary gate bias (the paper's gain tuning knob)."""
        op = self.device.operating_point(vgs, self.technology.mid_rail)
        return op.gm / (1.0 + op.gm * self.degeneration_resistance)

    # -- nonlinearity -----------------------------------------------------------

    def taylor_coefficients(self, delta: float = TAYLOR_DELTA
                            ) -> TaylorCoefficients:
        """Numerical Taylor expansion of the (degenerated) I-V around bias.

        Central differences on the large-signal transfer (including the
        series feedback of the degeneration resistor, solved per point)
        produce g1..g3; g3 is what sets the IIP3.  The expansion depends only
        on the (frozen) design and ``delta``, so results are memoized — the
        sweep engine hits this from every linearity spec it evaluates.
        """
        cached = self._taylor_cache.get(delta)
        if cached is not None:
            return cached
        coefficients = self._compute_taylor_coefficients(delta)
        self._taylor_cache[delta] = coefficients
        return coefficients

    def _compute_taylor_coefficients(self, delta: float) -> TaylorCoefficients:
        vgs0 = self.bias_point.vgs
        vds = self.technology.mid_rail
        r_s = self.degeneration_resistance

        def current(v_in: float) -> float:
            """Drain current for an input excursion v_in with degeneration."""
            i = self.device.drain_current(vgs0 + v_in, vds)
            if r_s == 0.0:
                return i
            # Solve i = f(vgs0 + v_in - i * r_s) by damped fixed-point
            # iteration; the damping converges the loop for gm * r_s < ~3,
            # which covers every realistic degeneration value.
            for _ in range(_FIXED_POINT_ITERATIONS):
                i_new = self.device.drain_current(vgs0 + v_in - i * r_s, vds)
                if abs(i_new - i) < _FIXED_POINT_TOLERANCE:
                    return i_new
                i = 0.5 * (i + i_new)
            raise RuntimeError(_divergence_message(abs(i_new - i), v_in, r_s))

        return TaylorCoefficients(*_taylor_from_currents(
            delta, *(current(v_in) for v_in in _excursions(delta))))

    def iip3_dbm(self) -> float:
        """Input-referred IIP3 of the (possibly degenerated) Gm stage, in dBm."""
        return self.taylor_coefficients().iip3_dbm()

    # -- noise ------------------------------------------------------------------

    def input_noise_sources(self) -> tuple[ThermalNoise, FlickerNoise]:
        """Input-referred thermal and flicker noise of the differential pair."""
        gm = self.raw_gm
        gamma = self.technology.gamma_noise
        # Two devices contribute; each has 4kT*gamma/gm input-referred, and the
        # degeneration resistors add their own thermal noise.
        equivalent_resistance = 2.0 * gamma / gm + 2.0 * self.degeneration_resistance
        thermal = ThermalNoise(resistance=equivalent_resistance,
                               temperature=self.technology.temperature)
        flicker_psd_at_1hz = 2.0 * self.device.params.kf / \
            self.device.params.gate_capacitance
        flicker = FlickerNoise(k_flicker=flicker_psd_at_1hz)
        return thermal, flicker

    def flicker_corner(self) -> float:
        """1/f corner frequency of the stand-alone Gm stage (Hz)."""
        thermal, flicker = self.input_noise_sources()
        return flicker.corner_with(thermal)

    # -- wide-band response ------------------------------------------------------

    def band_edges(self, coupling_capacitance: float,
                   output_node_resistance: float) -> tuple[float, float]:
        """(low, high) -3 dB band edges of the RF path in Hz.

        The low edge comes from the series coupling capacitance working
        against the 50 ohm source and gate impedance; the high edge from the
        parasitic capacitance C_PAR at the transconductor output node working
        against the impedance presented by that node (the transmission-gate
        load in active mode, the TIA feedback impedance reflected through the
        quad in passive mode).  Minimising C_PAR is what the paper credits
        for the wide band.
        """
        return band_edges_from(coupling_capacitance, output_node_resistance,
                               self.design.parasitic_capacitance)

    def band_response(self, rf_frequency: float | np.ndarray,
                      coupling_capacitance: float,
                      output_node_resistance: float) -> float | np.ndarray:
        """Magnitude response (linear, <= 1) of the RF path at ``rf_frequency``.

        First-order high-pass at the low edge and second-order low-pass at
        the high edge; the product reproduces the band-pass shape of Fig. 8.
        ``rf_frequency`` may be a scalar or an array of any shape.
        """
        response = band_magnitude(rf_frequency, *self.band_edges(
            coupling_capacitance, output_node_resistance))
        return response if np.ndim(rf_frequency) else float(response)


def band_edges_from(coupling_capacitance, output_node_resistance,
                    parasitic_capacitance) -> tuple:
    """:meth:`~TransconductanceAmplifier.band_edges` from the network
    values; the arguments broadcast, so a design block is one call."""
    if np.any(np.asarray(coupling_capacitance) <= 0):
        raise ValueError("coupling capacitance must be positive")
    if np.any(np.asarray(output_node_resistance) <= 0):
        raise ValueError("output node resistance must be positive")
    source_resistance = 2.0 * REFERENCE_IMPEDANCE
    low_edge = 1.0 / (2.0 * math.pi * source_resistance * coupling_capacitance)
    high_edge = 1.0 / (2.0 * math.pi * output_node_resistance *
                       parasitic_capacitance)
    return low_edge, high_edge


def band_magnitude(rf_frequency: float | np.ndarray,
                   low_edge: float | np.ndarray,
                   high_edge: float | np.ndarray) -> np.ndarray:
    """:meth:`band_response` from the edges; the arguments broadcast."""
    f = np.asarray(rf_frequency, dtype=float)
    highpass = (f / low_edge) / np.sqrt(1.0 + (f / low_edge) ** 2)
    lowpass = 1.0 / np.sqrt(1.0 + (f / high_edge) ** 4)
    return highpass * lowpass


# -- block solver ---------------------------------------------------------------


def _excursions(delta: float) -> tuple[float, ...]:
    """The five gate excursions of the expansion, in evaluation order."""
    return (0.0, delta, -delta, 2.0 * delta, -2.0 * delta)


def _taylor_from_currents(delta: float, i0, ip1, im1, ip2, im2) -> tuple:
    """g1..g3 from the five-point central differences (floats or arrays)."""
    g1 = (ip1 - im1) / (2.0 * delta)
    g2 = (ip1 - 2.0 * i0 + im1) / (2.0 * delta ** 2)
    # Third derivative by central differences, divided by 3! for the
    # Taylor coefficient.
    third_derivative = (ip2 - 2.0 * ip1 + 2.0 * im1 - im2) / (2.0 * delta ** 3)
    return g1, g2, third_derivative / 6.0


def _divergence_message(residual: float, v_in: float, r_s: float) -> str:
    return (f"degenerated bias point failed to converge within "
            f"{_FIXED_POINT_ITERATIONS} fixed-point iterations (residual "
            f"{residual:.3g} A at v_in={v_in:.3g} V, r_s={r_s:.3g} ohm); the "
            "damped iteration diverges once gm * r_s exceeds ~3")


def _device_bank(devices: Sequence[Mosfet], repeat: int = 1) -> MosfetArray:
    """One :class:`MosfetArray` element per device, each ``repeat`` times."""
    polarity = devices[0].params.polarity
    if any(device.params.polarity is not polarity for device in devices):
        raise ValueError("a Gm-stage block needs one device polarity")
    return MosfetArray(
        np.repeat([device.params.width for device in devices], repeat),
        np.repeat([device.params.length for device in devices], repeat),
        polarity,
        [device.params.technology for device in devices
         for _ in range(repeat)])


def solve_gm_block(amplifiers: Sequence[TransconductanceAmplifier],
                   labels: Sequence[str]) -> None:
    """Block-solve the bias point and Taylor expansion of many Gm stages.

    The array twin of the lazy :attr:`TransconductanceAmplifier.bias_point`
    and :meth:`~TransconductanceAmplifier.taylor_coefficients` (at
    :data:`TAYLOR_DELTA`): one masked bisection finds every bias ``vgs``
    (once per shared bias memo — both configurations of a design share
    one), and
    one masked damped fixed-point iteration over a (stages x 5) array runs
    every degenerated excursion.  Each element repeats the scalar code's
    IEEE operation sequence, so the seeded memos are bit-identical to what
    the lazy path would have computed; stages already solved are skipped.

    ``labels`` (one per amplifier) name the offending designs in the
    scalar solvers' unchanged ``ValueError`` (unreachable bias current) and
    ``RuntimeError`` (divergent degeneration) messages.
    """
    if len(labels) != len(amplifiers):
        raise ValueError(
            f"got {len(labels)} labels for {len(amplifiers)} amplifiers")
    # Keyed by memo: amplifiers sharing one bias memo need one solve.
    biased: dict[int, tuple[TransconductanceAmplifier, str]] = {}
    for amplifier, label in zip(amplifiers, labels):
        if not amplifier.bias_solved:
            biased.setdefault(id(amplifier._bias_memo), (amplifier, label))
    if biased:
        _seed_bias_points(list(biased.values()))
    expanded = [(amplifier, label)
                for amplifier, label in zip(amplifiers, labels)
                if TAYLOR_DELTA not in amplifier._taylor_cache]
    if expanded:
        _seed_taylor_coefficients(expanded)


def _seed_bias_points(
        stages: Sequence[tuple[TransconductanceAmplifier, str]]) -> None:
    """``Mosfet.vgs_for_current`` for every stage as one masked bisection."""
    devices = [amplifier.device for amplifier, _ in stages]
    mid_rails = [amplifier.technology.mid_rail for amplifier, _ in stages]
    vgs = _device_bank(devices).vgs_for_current(
        [amplifier._bias_per_side for amplifier, _ in stages], mid_rails,
        names=[label for _, label in stages])
    for (amplifier, _), device, bias, vds in zip(stages, devices, vgs,
                                                 mid_rails):
        amplifier.seed_bias_point(device.operating_point(float(bias), vds))


def _seed_taylor_coefficients(
        stages: Sequence[tuple[TransconductanceAmplifier, str]]) -> None:
    """The five-point expansion of every stage as one masked iteration."""
    excursions = _excursions(TAYLOR_DELTA)
    width = len(excursions)
    count = len(stages)
    bank = _device_bank([amplifier.device for amplifier, _ in stages], width)
    vgs0 = np.repeat([amplifier.bias_point.vgs for amplifier, _ in stages],
                     width)
    vds = np.repeat([amplifier.technology.mid_rail
                     for amplifier, _ in stages], width)
    r_s = np.repeat([amplifier.degeneration_resistance
                     for amplifier, _ in stages], width)
    gate = vgs0 + np.tile(excursions, count)
    current = bank.drain_current(gate, vds)
    # Undegenerated elements are done after that first evaluation, exactly
    # like the scalar r_s == 0 branch; the rest iterate until each meets
    # the scalar convergence test, on the scalar's own iteration count.
    pending = r_s != 0.0
    converged = current.copy()
    residual = np.zeros_like(current)
    for _ in range(_FIXED_POINT_ITERATIONS):
        if not pending.any():
            break
        updated = bank.drain_current(gate - current * r_s, vds)
        step = np.abs(updated - current)
        done = pending & (step < _FIXED_POINT_TOLERANCE)
        converged[done] = updated[done]
        pending &= ~done
        current = np.where(pending, 0.5 * (current + updated), current)
        residual = np.where(pending, np.abs(updated - current), residual)
    if pending.any():
        failed = pending.reshape(count, width)
        problems = []
        for index in np.flatnonzero(failed.any(axis=1)):
            first = index * width + int(np.argmax(failed[index]))
            problems.append(f"{stages[index][1]}: " + _divergence_message(
                float(residual[first]), excursions[first % width],
                float(r_s[first])))
        raise RuntimeError("; ".join(problems))
    g1, g2, g3 = _taylor_from_currents(
        TAYLOR_DELTA, *converged.reshape(count, width).T)
    for index, (amplifier, _) in enumerate(stages):
        amplifier._taylor_cache[TAYLOR_DELTA] = TaylorCoefficients(
            g1=float(g1[index]), g2=float(g2[index]), g3=float(g3[index]))
