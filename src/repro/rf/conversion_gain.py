"""Conversion-gain theory and measurement for commutating mixers.

Two views of the same quantity:

* the *theory* helpers implement the switching-function expressions the
  paper quotes — a hard-switched quad multiplies the RF current by a square
  wave whose fundamental coefficient gives the 2/pi factor of equation (3),
  ``VCG = (2/pi) * gm * Z_F`` for the passive mode and the analogous
  ``(2/pi) * gm * R_load`` for the active Gilbert cell;
* :func:`measure_conversion_gain` measures the gain of an actual
  waveform-level device by injecting an RF tone and reading the IF tone off
  the output spectrum, which is how the Fig. 8 / Fig. 9 gain curves are
  regenerated.
"""

from __future__ import annotations

import math

import numpy as np

# WaveformTransfer is re-exported for backwards compatibility; the
# canonical definition lives in repro.rf.signal.
from repro.rf.signal import Tone, WaveformTransfer, sample_times  # noqa: F401
from repro.rf.spectrum import Spectrum
from repro.units import db_from_voltage_ratio

#: Fundamental Fourier coefficient of a +-1 square wave divided by 2 — the
#: voltage conversion factor of an ideal hard-switched commutating mixer.
SWITCHING_FACTOR = 2.0 / math.pi


def switching_mixer_voltage_gain(gm: float | np.ndarray,
                                 load_impedance: float | np.ndarray
                                 ) -> float | np.ndarray:
    """Linear voltage conversion gain of an ideal commutating mixer.

    ``(2/pi) * gm * |Z_load|`` — equation (3) of the paper with ``Z_F`` as
    the load, equally applicable to the active mode with the transmission
    gate resistance as the load.  Both arguments broadcast, so a sweep can
    combine a vector of effective gm values with a vector of load magnitudes
    in one call; scalar inputs return a plain ``float``.
    """
    gm_arr = np.asarray(gm, dtype=float)
    load_arr = np.asarray(load_impedance, dtype=float)
    if np.any(gm_arr <= 0):
        raise ValueError("gm must be positive")
    if np.any(load_arr <= 0):
        raise ValueError("load impedance magnitude must be positive")
    gain = SWITCHING_FACTOR * gm_arr * load_arr
    return gain if np.ndim(gm) or np.ndim(load_impedance) else float(gain)


def passive_mixer_gain_db(gm: float, feedback_resistance: float,
                          feedback_capacitance: float,
                          if_frequency: float | np.ndarray) -> float | np.ndarray:
    """Passive-mode conversion gain in dB at a given IF frequency.

    The load is the TIA feedback network ``R_F || C_F`` (equation 3); its RC
    pole is what rolls the gain off at high IF in Fig. 9.  ``if_frequency``
    may be an array, in which case the whole gain curve comes back at once.
    """
    from repro.devices.passives import feedback_impedance

    z_f = np.abs(feedback_impedance(feedback_resistance, feedback_capacitance,
                                    if_frequency))
    result = db_from_voltage_ratio(switching_mixer_voltage_gain(gm, z_f))
    return result if np.ndim(if_frequency) else float(result)


def active_mixer_gain_db(gm: float, load_resistance: float,
                         load_capacitance: float | None = None,
                         if_frequency: float | np.ndarray | None = None
                         ) -> float | np.ndarray:
    """Active-mode (Gilbert cell) conversion gain in dB.

    The load is the transmission-gate resistance, optionally shunted by the
    low-pass capacitor ``C_c`` when an IF frequency (scalar or array) is
    given.
    """
    if load_capacitance is not None and if_frequency is not None:
        from repro.devices.passives import feedback_impedance

        load = np.abs(feedback_impedance(load_resistance, load_capacitance,
                                         if_frequency))
    else:
        load = load_resistance
    result = db_from_voltage_ratio(switching_mixer_voltage_gain(gm, load))
    return result if np.ndim(if_frequency) else float(result)


def measure_conversion_gain(device: WaveformTransfer, rf_frequency: float,
                            if_frequency: float, input_power_dbm: float,
                            sample_rate: float, num_samples: int) -> float:
    """Measure the conversion gain (dB) of a waveform-level mixer model.

    A single RF tone at ``input_power_dbm`` is applied and the output power
    at ``if_frequency`` compared against the input power; because both are
    expressed in dBm into the same reference impedance the difference is the
    conversion gain in dB.
    """
    if input_power_dbm > -20.0:
        raise ValueError(
            "use a small-signal input (<= -20 dBm) for conversion-gain "
            "measurements to stay clear of compression")
    times = sample_times(sample_rate, num_samples)
    tone = Tone(rf_frequency, input_power_dbm)
    output = device(tone.waveform(times))
    spectrum = Spectrum(output, sample_rate)
    output_dbm = spectrum.power_dbm_at(if_frequency)
    return output_dbm - input_power_dbm
