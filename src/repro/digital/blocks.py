"""Fixed-point building blocks of the digital-IF down-conversion chain.

Every block is a faithful integer model of the corresponding HDL datapath
stage, shaped after the two reference designs the roadmap names: the
usdr-fpga ``nco_mixer.v`` (a 32-bit NCO phase accumulator whose top bits
address a quantized LO lookup) and the BerkeleyLab Bedrock ``mixer.v``
(ADC x LO product kept to the input width plus a few *guard bits*, the
dropped LSBs rounded by adding their MSB, with the LO scaled to
``2^(bits-1) - 1`` so it can never sit at negative full scale).

All arithmetic runs in ``int64``/``uint64`` NumPy arrays with explicit
two's-complement wrapping at the modelled register widths, so

* every block is **exact** — bit-identical to the per-sample reference
  implementations (``*_reference``) that mirror an RTL simulation loop —
  as long as the modelled registers stay within 62 bits (validated by
  :class:`~repro.digital.plan.DigitalIfPlan`), and
* the whole chain vectorizes over leading axes: a ``(bit_widths,
  samples)`` block quantizes, mixes and decimates as one NumPy pass per
  stage, which is what makes a bit-width sweep as cheap as a single run.

The float companions (:func:`float_lo`, :func:`cic_decimate_float`) are the
*unquantized* reference chain the convergence tests (and the
``float_error_peak`` measure) compare against: at wide widths the integer
chain matches them to better than 1e-9 V.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "cic_decimate",
    "cic_decimate_float",
    "cic_decimate_reference",
    "cic_growth_bits",
    "float_lo",
    "mix_complex",
    "nco_lo_codes",
    "nco_phases",
    "nco_phases_reference",
    "phase_increment",
    "quantize_midrise",
    "quantize_midrise_reference",
    "round_shift",
    "wrap_to_width",
]


# -- ADC ----------------------------------------------------------------------

def quantize_midrise(volts: np.ndarray, bits: np.ndarray | int,
                     full_scale: float) -> np.ndarray:
    """Mid-rise quantizer with clipping: volts in, integer ADC codes out.

    Decision thresholds sit at integer multiples of the LSB ``2 *
    full_scale / 2**bits`` (so zero volts falls between the two innermost
    codes — no code represents exactly 0 V, the mid-rise signature) and
    codes clip to the two's-complement range ``[-2**(bits-1), 2**(bits-1)
    - 1]``.  ``bits`` broadcasts: a ``(B, 1)`` column against a
    ``(samples,)`` row quantizes every bit width in one pass.
    """
    bits = np.asarray(bits, dtype=np.int64)
    volts = np.asarray(volts, dtype=float)
    lsb = 2.0 * float(full_scale) / np.exp2(bits)
    codes = np.floor(volts / lsb)
    top = np.exp2(bits - 1)
    codes = np.clip(codes, -top, top - 1.0)
    return codes.astype(np.int64)


def quantize_midrise_reference(volts, bits: int, full_scale: float) -> list:
    """Per-sample mid-rise quantizer (the RTL-loop twin, for tests)."""
    lsb = 2.0 * full_scale / 2 ** bits
    top = 2 ** (bits - 1)
    codes = []
    for value in volts:
        code = math.floor(value / lsb)
        codes.append(max(-top, min(top - 1, code)))
    return codes


# -- NCO ----------------------------------------------------------------------

def phase_increment(frequency_hz: float, sample_rate: float,
                    phase_bits: int, tolerance: float = 1e-6) -> int:
    """The NCO phase-accumulator increment realizing ``frequency_hz``.

    ``round(frequency / sample_rate * 2**phase_bits)``, required to be
    exact (within ``tolerance`` accumulator counts): a non-representable
    frequency would silently detune the NCO off the FFT bin grid the SNR
    measures read, so it is refused loudly instead.
    """
    if sample_rate <= 0:
        raise ValueError("sample rate must be positive")
    ratio = frequency_hz / sample_rate * 2.0 ** phase_bits
    increment = round(ratio)
    if abs(ratio - increment) > tolerance:
        raise ValueError(
            f"NCO frequency {frequency_hz:.6g} Hz is not representable in "
            f"{phase_bits} phase bits at {sample_rate:.6g} S/s "
            f"(increment {ratio!r} is not an integer)")
    return int(increment) % (1 << phase_bits)


def nco_phases(increment: int, count: int, phase_bits: int) -> np.ndarray:
    """The accumulator sequence ``(n * increment) mod 2**phase_bits``.

    Closed form of the per-sample accumulation ``phase += increment`` (the
    usdr-fpga ``nco_value <= nco_value + cfg_dsp_cordic_phase`` register),
    as ``uint64`` — exact because the modulo keeps every term below
    ``2**phase_bits <= 2**48``.
    """
    if not 0 <= increment < (1 << phase_bits):
        raise ValueError("increment must lie in [0, 2**phase_bits)")
    indices = np.arange(count, dtype=np.uint64)
    mask = np.uint64((1 << phase_bits) - 1)
    return (indices * np.uint64(increment)) & mask


def nco_phases_reference(increment: int, count: int, phase_bits: int) -> list:
    """Iterative accumulator (the register-transfer twin, for tests)."""
    modulus = 1 << phase_bits
    phases, phase = [], 0
    for _ in range(count):
        phases.append(phase)
        phase = (phase + increment) % modulus
    return phases


def nco_lo_codes(phases: np.ndarray, phase_bits: int, table_bits: int,
                 lo_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantized complex LO samples for a phase sequence.

    The accumulator's top ``table_bits`` address an ideal cos/sin lookup
    (the usdr-fpga design truncates ``nco_value[31:18]`` the same way);
    entries are ``round(cos * (2**(lo_bits-1) - 1))`` — scaled to one LSB
    short of full scale so the LO can never sit at exactly ``-2**(lo_bits
    - 1)``, the Bedrock trick that buys a guard bit in the product.
    Returns ``(i, q)`` codes for *down*-conversion (``q`` carries
    ``-sin``), as ``int64``.
    """
    if not 1 <= table_bits <= phase_bits:
        raise ValueError("table_bits must lie in [1, phase_bits]")
    top = (np.asarray(phases, dtype=np.uint64)
           >> np.uint64(phase_bits - table_bits))
    angle = top.astype(float) * (2.0 * math.pi / float(1 << table_bits))
    scale = float((1 << (lo_bits - 1)) - 1)
    i_codes = np.round(np.cos(angle) * scale).astype(np.int64)
    q_codes = np.round(-np.sin(angle) * scale).astype(np.int64)
    return i_codes, q_codes


def float_lo(phases: np.ndarray, phase_bits: int) -> np.ndarray:
    """The unquantized complex LO ``exp(-j * 2 pi * phase / 2**phase_bits)``.

    Derived from the same accumulator sequence as :func:`nco_lo_codes` (so
    integer and float chains realize the *same* frequency), but with full
    phase resolution and unit amplitude — the reference the quantized LO
    converges to as ``table_bits`` / ``lo_bits`` grow.
    """
    angle = (np.asarray(phases, dtype=np.uint64).astype(float)
             * (2.0 * math.pi / 2.0 ** phase_bits))
    return np.cos(angle) - 1j * np.sin(angle)


# -- bit manipulation ---------------------------------------------------------

def round_shift(values: np.ndarray, shift: np.ndarray | int) -> np.ndarray:
    """Arithmetic right shift with round-half-up: drop LSBs like the RTL.

    Adds the MSB of the dropped part before shifting (the Bedrock
    ``mix_out_w[dwlo-davr-1]`` rounding bit), so truncation error is
    centred instead of biased.  ``shift`` may be a scalar or broadcastable
    array of non-negative counts; 0 is the identity.
    """
    values = np.asarray(values, dtype=np.int64)
    shift = np.asarray(shift, dtype=np.int64)
    if np.any(shift < 0):
        raise ValueError("shift counts must be non-negative")
    half = np.where(shift > 0,
                    np.left_shift(np.int64(1), np.maximum(shift - 1, 0)),
                    np.int64(0))
    return (values + half) >> shift


def wrap_to_width(values: np.ndarray, width: np.ndarray | int) -> np.ndarray:
    """Two's-complement wrap of ``values`` into ``width``-bit registers.

    Works on ``int64`` or ``uint64`` input (the CIC runs modulo 2**64 and
    wraps once at the end); ``width`` may broadcast, each entry in
    [2, 62].  A value outside the register range re-enters from the other
    side, exactly as hardware overflow does.
    """
    width = np.asarray(width, dtype=np.uint64)
    if np.any((width < 2) | (width > 62)):
        raise ValueError("register widths must lie in [2, 62] bits")
    unsigned = np.asarray(values).astype(np.uint64, copy=False)
    half = np.uint64(1) << (width - np.uint64(1))
    mask = (np.uint64(1) << width) - np.uint64(1)
    return (((unsigned + half) & mask) - half).view(np.int64)


# -- complex mixing -----------------------------------------------------------

def mix_complex(codes: np.ndarray, lo_i: np.ndarray, lo_q: np.ndarray,
                adc_bits: np.ndarray | int, lo_bits: np.ndarray | int,
                guard_bits: np.ndarray | int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ADC codes times the quantized LO, kept to ``adc_bits + guard_bits``.

    The Bedrock product discipline: of the ``adc_bits + lo_bits`` product
    bits, keep the top ``adc_bits + guard_bits`` (shift out ``lo_bits - 1
    - guard_bits`` LSBs with rounding) and wrap into that register.  The
    three widths broadcast, so each leading row may have its own.
    Returns ``(i, q, overflow_fraction)`` where the fraction (per leading
    row) counts samples whose true product did not fit the register —
    the guard-bit overflow the ``bits_floor`` experiment watches for.
    """
    guard_bits = np.asarray(guard_bits, dtype=np.int64)
    shift = np.asarray(lo_bits, dtype=np.int64) - 1 - guard_bits
    if np.any(shift < 0):
        raise ValueError("guard_bits must not exceed lo_bits - 1")
    width = np.asarray(adc_bits, dtype=np.int64) + guard_bits
    full_i = round_shift(codes * lo_i, shift)
    full_q = round_shift(codes * lo_q, shift)
    i_mix = wrap_to_width(full_i, width)
    q_mix = wrap_to_width(full_q, width)
    overflowed = (i_mix != full_i) | (q_mix != full_q)
    return i_mix, q_mix, overflowed.mean(axis=-1)


# -- CIC decimation -----------------------------------------------------------

def cic_growth_bits(stages: int, decimation: int) -> int:
    """Hogenauer register growth: ``ceil(stages * log2(decimation))`` bits."""
    if stages < 1 or decimation < 1:
        raise ValueError("CIC stages and decimation must be at least 1")
    return int(math.ceil(stages * math.log2(decimation))) if decimation > 1 \
        else 0


def cic_decimate(values: np.ndarray, decimation: int, stages: int,
                 register_width: np.ndarray | int) -> np.ndarray:
    """N-stage CIC decimator on integer samples, exact modulo arithmetic.

    ``stages`` integrators at the input rate, decimation by keeping every
    ``decimation``-th sample, ``stages`` combs (differential delay 1) at
    the output rate.  Everything runs modulo 2**64 in ``uint64`` — the
    Hogenauer property makes the comb outputs exact despite integrator
    wrap-around as long as the true output fits ``register_width`` (the
    input width plus :func:`cic_growth_bits`) — then wraps once into the
    modelled register.  The DC gain is ``decimation**stages``; no scaling
    is applied here.
    """
    acc = np.asarray(values).astype(np.uint64)
    for _ in range(stages):
        acc = np.cumsum(acc, axis=-1)
    dec = acc[..., decimation - 1::decimation]
    for _ in range(stages):
        previous = np.concatenate(
            [np.zeros_like(dec[..., :1]), dec[..., :-1]], axis=-1)
        dec = dec - previous
    return wrap_to_width(dec, register_width)


def cic_decimate_reference(values, decimation: int, stages: int,
                           register_width: int) -> list:
    """Per-sample CIC in exact Python integers (the RTL twin, for tests).

    Unbounded integer arithmetic followed by one final wrap is congruent
    modulo ``2**register_width`` with the vectorized modulo-2**64 path, so
    the two agree bit for bit — including when the register genuinely
    overflows.
    """
    integrators = [0] * stages
    combs = [0] * stages
    out = []
    for index, value in enumerate(values):
        total = int(value)
        for stage in range(stages):
            integrators[stage] += total
            total = integrators[stage]
        if index % decimation == decimation - 1:
            for stage in range(stages):
                total, combs[stage] = total - combs[stage], total
            out.append(total)
    half = 1 << (register_width - 1)
    modulus = 1 << register_width
    return [((value + half) % modulus) - half for value in out]


def cic_decimate_float(values: np.ndarray, decimation: int,
                       stages: int) -> np.ndarray:
    """The CIC's transfer applied in float (complex allowed), unscaled.

    Same integrator/decimate/comb structure as :func:`cic_decimate` in
    float64 — the unquantized reference the integer chain converges to
    (after dividing by the ``decimation**stages`` DC gain).
    """
    acc = np.asarray(values)
    for _ in range(stages):
        acc = np.cumsum(acc, axis=-1)
    dec = acc[..., decimation - 1::decimation]
    for _ in range(stages):
        previous = np.concatenate(
            [np.zeros_like(dec[..., :1]), dec[..., :-1]], axis=-1)
        dec = dec - previous
    return dec
