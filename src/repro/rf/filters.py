"""First-order filter responses used by the mixer's load and TIA stages.

The paper uses two first-order RC low-pass networks: the feedback ``R_F C_F``
of the TIA (which doubles as the anti-aliasing filter for the passive mode)
and the transmission-gate load with ``C_c`` in the active mode.  Both are
captured by :class:`FirstOrderLowPass`.  Its time-domain filters are plain
numpy: the bilinear one-pole recursion runs as a blocked ``cumsum`` scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def rc_pole_frequency(resistance: float, capacitance: float) -> float:
    """-3 dB frequency of a first-order RC network (Hz)."""
    if resistance <= 0 or capacitance <= 0:
        raise ValueError("R and C must be positive")
    return 1.0 / (2.0 * math.pi * resistance * capacitance)


def one_pole_response(frequency: float | np.ndarray,
                      pole_frequency: float | np.ndarray,
                      dc_gain: float = 1.0) -> np.ndarray:
    """Complex one-pole low-pass response; the arguments broadcast."""
    return dc_gain / (1.0 + 1j * np.asarray(frequency, dtype=float)
                      / pole_frequency)


@dataclass(frozen=True)
class FirstOrderLowPass:
    """A single-pole low-pass response with a DC gain."""

    dc_gain: float
    pole_frequency: float

    def __post_init__(self) -> None:
        if self.pole_frequency <= 0:
            raise ValueError("pole frequency must be positive")

    @classmethod
    def from_rc(cls, resistance: float, capacitance: float,
                dc_gain: float = 1.0) -> "FirstOrderLowPass":
        """Build the response of an RC network with an optional DC gain."""
        return cls(dc_gain=dc_gain,
                   pole_frequency=rc_pole_frequency(resistance, capacitance))

    def response(self, frequency: float | np.ndarray) -> complex | np.ndarray:
        """Complex transfer function at ``frequency``."""
        h = one_pole_response(frequency, self.pole_frequency, self.dc_gain)
        return h if np.ndim(frequency) else complex(h)

    def magnitude(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Magnitude response."""
        mag = np.abs(self.response(frequency))
        return mag if np.ndim(frequency) else float(mag)

    def magnitude_db(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Magnitude response in dB."""
        mag = self.magnitude(frequency)
        result = 20.0 * np.log10(mag)
        return result if np.ndim(frequency) else float(result)

    def group_delay(self, frequency: float | np.ndarray) -> float | np.ndarray:
        """Group delay in seconds (analytic expression for one pole)."""
        f = np.asarray(frequency, dtype=float)
        tau = 1.0 / (2.0 * math.pi * self.pole_frequency)
        delay = tau / (1.0 + (f / self.pole_frequency) ** 2)
        return delay if np.ndim(frequency) else float(delay)

    def _bilinear_coefficients(self, sample_rate: float
                               ) -> tuple[list[float], list[float]]:
        """``(b, a)`` of the bilinear transform of ``H(s) = g / (1 + s/wc)``.

        The one discretisation both :meth:`apply` and :meth:`apply_periodic`
        run — change it here and the two paths stay identical by
        construction.  ``b0 == b1``: the zero sits at ``z = -1``.
        """
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        wc = 2.0 * math.pi * self.pole_frequency
        k = 2.0 * sample_rate
        a0 = wc + k
        return ([self.dc_gain * wc / a0, self.dc_gain * wc / a0],
                [1.0, (wc - k) / a0])

    def _dc_seed(self, samples: np.ndarray, b0: float) -> np.ndarray:
        """Initial filter state settling a DC input at its settled output,
        avoiding a start-up transient that would smear the spectrum."""
        first = samples[..., :1]
        return first * self.dc_gain - b0 * first

    def apply(self, waveform: np.ndarray, sample_rate: float) -> np.ndarray:
        """Filter sampled waveforms with the single-pole response.

        Implemented as a first-order IIR (bilinear-transformed RC), which is
        adequate for the behavioural signal paths in this library, started
        from the state that holds a DC input at its settled output.  Time
        runs along the **last** axis, so a batched ``(records, samples)``
        block is filtered row by row in one call — each row identical to
        filtering it alone.
        """
        samples = np.asarray(waveform, dtype=float)
        (b0, _), (_, a1) = self._bilinear_coefficients(sample_rate)
        u = _feed_forward(samples, b0)
        u[..., :1] += self._dc_seed(samples, b0)
        return _first_order_scan(u, -a1)

    def apply_periodic(self, waveform: np.ndarray,
                       sample_rate: float) -> np.ndarray:
        """The filter's periodic steady state for a one-period record.

        Treats the record as one period of an endless waveform: ``x[-1]``
        wraps to the last sample, and the recursion starts from the state
        the period returns to, ``y[-1] = y[N-1]`` — the limit of prepending
        ever more copies of the record to :meth:`apply` and keeping the
        last.  That state has a closed form: scan once from rest to get
        ``y0``, then ``y[N-1] = y0[N-1] / (1 - c^N)`` and the answer is
        ``y0[n] + c^(n+1) * y[N-1]``.  It equals ``irfft(rfft(x) * H)`` with
        the bilinear ``H``.  No duplicated record is materialised, so every
        stage *around* the filter works on half the samples of a
        cyclic-prefix evaluation.  For a record-periodic input (the
        coherently sampled benches) this is exactly what the prefixed
        evaluation converges to; it is the filter path of the batched
        waveform engine's ``assume_periodic`` devices.  Time runs along the
        last axis, each row identical to filtering it alone.
        """
        samples = np.asarray(waveform, dtype=float)
        (b0, _), (_, a1) = self._bilinear_coefficients(sample_rate)
        c = -a1
        u = _feed_forward(samples, b0)
        u[..., 0] += b0 * samples[..., -1]
        out = _first_order_scan(u, c)
        length = out.shape[-1]
        # Restart from y[-1] = y[N-1]: add c^(n+1) * y[N-1], a row at a time
        # so the temporary is one block, not one batch.  Past the first scan
        # block c^(n+1) is below 2^-500.
        _, rising = _scan_powers(c, length)
        restarts = c * out[..., -1] / (1.0 - c ** length)
        for row, restart in zip(out.reshape(-1, length), restarts.reshape(-1)):
            row[:rising.size] += rising * restart
        return out


def _feed_forward(samples: np.ndarray, b0: float) -> np.ndarray:
    """``u[n] = b0*x[n] + b1*x[n-1]`` (``x[-1] = 0``), the input of the
    pole's recursion ``y[n] = c*y[n-1] + u[n]``.

    The bilinear low-pass has ``b1 == b0`` (its zero sits at ``z = -1``),
    so ``u`` is built in place as ``b0 * (x[n] + x[n-1])``: one
    record-sized array and no record-sized temporaries, whose fresh pages
    cost more than the arithmetic.
    """
    u = samples.copy()
    u[..., 1:] += samples[..., :-1]
    u *= b0
    return u


#: Largest rescaling ``c^-k`` the blocked scan applies: far below float64
#: overflow (2^1024), so the rescaled partial sums stay finite.
_MAX_RESCALE = 2.0 ** 500


@lru_cache(maxsize=8)
def _scan_powers(c: float, length: int) -> tuple[np.ndarray, np.ndarray]:
    """``(c^-k, c^k)`` for ``k`` in one scan block of a ``length`` record.

    The block is the whole record unless ``|c|^-length`` would exceed
    :data:`_MAX_RESCALE`, in which case it is the longest run that does
    not.  Memoised: an engine filters every chunk of one (design, mode)
    cell, records of one length through one pole, before the next cell,
    so a few entries serve it.
    """
    block = length
    if abs(c) ** length * _MAX_RESCALE < 1.0:
        decay = -math.log(abs(c)) if c else math.inf
        block = max(1, int(math.log(_MAX_RESCALE) / decay))
    # c^(128i + j) = c^(128i) * c^j: two short np.power tables and one
    # product per sample, within 1.5 ulp, where a full-length np.power
    # would cost more than the scan it serves on every fresh pole.
    high = np.power(c, 128 * np.arange(-(-block // 128)), dtype=float)
    low = np.power(c, np.arange(128), dtype=float)
    rising = np.multiply.outer(high, low).ravel()[:block]
    falling = 1.0 / rising
    falling.flags.writeable = rising.flags.writeable = False
    return falling, rising


def _first_order_scan(u: np.ndarray, c: float) -> np.ndarray:
    """Run ``y[n] = c*y[n-1] + u[n]`` from rest along the last axis, in place.

    Within a block, ``y[k] = c^k * sum_{j<=k} c^-j u[j]``: a rescale, a
    ``cumsum`` and a rescale back, so the recursion costs three vector
    passes instead of a Python loop.  Blocks chain through their last
    output.
    """
    falling, rising = _scan_powers(c, u.shape[-1])
    block = falling.size
    for start in range(0, u.shape[-1], block):
        segment = u[..., start:start + block]
        span = segment.shape[-1]
        segment *= falling[:span]
        if start:
            segment[..., 0] += c * u[..., start - 1]
        np.cumsum(segment, axis=-1, out=segment)
        segment *= rising[:span]
    return u
