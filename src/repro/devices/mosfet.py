"""Behavioural MOSFET model used by the circuit substrate and the mixer core.

The model is a square-law device with mobility degradation (the ``theta``
term), channel-length modulation and a smooth triode/saturation transition.
That is far simpler than BSIM4, but it captures the behaviours the paper's
design arguments rest on:

* ``gm`` proportional to overdrive — the bias-voltage gain tuning of the
  active mixer (section II.B);
* triode-region ``r_on`` set by W/L and overdrive — the PMOS switch /
  degeneration resistance (Fig. 5a) and the transmission-gate load
  (Fig. 5b);
* mobility degradation as the dominant odd-order nonlinearity — the IIP3
  difference between the gm-stage-limited active mode and the
  degenerated passive mode;
* thermal and flicker noise densities — the NF curves of Fig. 9 and the
  flicker corner discussed in section III.

The law is written once, as the module functions below (polarity
constants and sign, the region test, and id/gm/gds per region).  Each
takes Python floats or NumPy arrays, so the scalar :class:`Mosfet` and
the bank :class:`MosfetArray` call the same expressions and compute the
same doubles by construction.  The only code each path keeps is region
selection: ``if`` on a float, ``np.where`` on an array.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.units import BOLTZMANN
from repro.devices.technology import Technology, UMC65_LIKE


class MosfetPolarity(enum.Enum):
    """Device polarity."""

    NMOS = "nmos"
    PMOS = "pmos"


class MosfetRegion(enum.Enum):
    """Operating region reported by :meth:`Mosfet.operating_point`."""

    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


# -- the square law, written once ---------------------------------------------


def device_constants(technology: Technology, polarity: MosfetPolarity
                     ) -> tuple[float, float, float, float]:
    """``(vth, u_cox, lambda, kf)`` of one polarity in ``technology``."""
    if polarity is MosfetPolarity.NMOS:
        return (technology.vth_n, technology.u_cox_n, technology.lambda_n,
                technology.kf_n)
    return (technology.vth_p, technology.u_cox_p, technology.lambda_p,
            technology.kf_p)


def polarity_sign(polarity: MosfetPolarity) -> float:
    """+1 for NMOS, -1 for PMOS: the device's own voltage sign."""
    return 1.0 if polarity is MosfetPolarity.NMOS else -1.0


def normalise(polarity: MosfetPolarity, vgs, vds):
    """Flip signs for PMOS so the square law sees NMOS-like voltages."""
    if polarity is MosfetPolarity.PMOS:
        return -vgs, -vds
    return vgs, vds


def squared(x):
    """``x ** 2`` through libm pow() for floats and arrays alike.

    CPython squares a float with pow(); numpy lowers ``arr ** 2`` to
    ``x * x``, 1 ulp away for ~0.1 % of inputs, so arrays go through
    ``np.float_power``, which is pow().
    """
    return x ** 2 if isinstance(x, float) else np.float_power(x, 2.0)


def region_test(vov, nvds):
    """``(cutoff, saturated)``; ``saturated`` counts only where not cut off.

    No sub-threshold conduction (the design never relies on it); reverse
    ``vds`` is off too.
    """
    return (vov <= 0.0) | (nvds < 0.0), nvds >= vov


def mobility_degradation(theta, vov):
    """Effective beta drops with overdrive: the transconductor's
    third-order nonlinearity."""
    return 1.0 + theta * vov


def square_law_terms(beta, theta, lam, vov, nvds):
    """``(degradation, beta_eff, clm)`` shared by every region's law."""
    degradation = mobility_degradation(theta, vov)
    return degradation, beta / degradation, 1.0 + lam * nvds


def saturation_current(beta_eff, vov, clm):
    """Saturation drain current."""
    return 0.5 * beta_eff * vov * vov * clm


def saturation_slopes(beta, theta, lam, vov, degradation, beta_eff, clm):
    """Saturation ``(gm, gds)``; gm includes the degradation term."""
    gm = beta * vov * (1.0 + 0.5 * theta * vov) / squared(degradation) * clm
    return gm, 0.5 * beta_eff * vov * vov * lam


def triode_current(beta_eff, vov, nvds, clm):
    """Triode drain current."""
    return beta_eff * (vov * nvds - 0.5 * nvds * nvds) * clm


def triode_slopes(beta_eff, lam, vov, nvds, clm):
    """Triode ``(gm, gds)``.  gm omits the theta-derivative of beta_eff."""
    gds = beta_eff * (vov - nvds) * clm \
        + beta_eff * (vov * nvds - 0.5 * nvds * nvds) * lam
    return beta_eff * nvds * clm, gds


@dataclass(frozen=True)
class MosfetParameters:
    """Geometry and polarity of a single device.

    Attributes
    ----------
    width / length:
        Drawn channel dimensions in metres.
    polarity:
        NMOS or PMOS.
    technology:
        Process constants; defaults to the 65 nm-class technology.
    """

    width: float
    length: float
    polarity: MosfetPolarity = MosfetPolarity.NMOS
    technology: Technology = UMC65_LIKE

    def __post_init__(self) -> None:
        if self.width <= 0 or self.length <= 0:
            raise ValueError("MOSFET width and length must be positive")
        if self.length < self.technology.l_min * 0.999:
            raise ValueError(
                f"channel length {self.length:.3g} m is below the minimum "
                f"{self.technology.l_min:.3g} m of {self.technology.name}"
            )

    @property
    def vth(self) -> float:
        """Threshold voltage magnitude for this polarity (V)."""
        return device_constants(self.technology, self.polarity)[0]

    @property
    def u_cox(self) -> float:
        """Process transconductance parameter for this polarity (A/V^2)."""
        return device_constants(self.technology, self.polarity)[1]

    @property
    def lambda_clm(self) -> float:
        """Channel-length modulation coefficient for this polarity (1/V)."""
        return device_constants(self.technology, self.polarity)[2]

    @property
    def kf(self) -> float:
        """Flicker-noise coefficient for this polarity (V^2*F)."""
        return device_constants(self.technology, self.polarity)[3]

    @property
    def beta(self) -> float:
        """Device transconductance factor ``u_cox * W / L`` (A/V^2)."""
        return self.u_cox * (self.width / self.length)

    @property
    def gate_capacitance(self) -> float:
        """Total gate-oxide capacitance ``C_ox * W * L`` (F)."""
        return self.technology.cox * self.width * self.length


@dataclass(frozen=True)
class MosfetOperatingPoint:
    """Small-signal operating point of a MOSFET at a fixed bias.

    Attributes
    ----------
    id:
        Drain current (A), always reported as a positive magnitude.
    gm:
        Gate transconductance (S).
    gds:
        Output conductance (S).
    region:
        Operating region.
    vgs / vds:
        The (polarity-normalised) terminal voltages the point was computed at.
    vov:
        Overdrive voltage ``vgs - vth`` (V); negative in cutoff.
    """

    id: float
    gm: float
    gds: float
    region: MosfetRegion
    vgs: float
    vds: float
    vov: float

    @property
    def ro(self) -> float:
        """Small-signal output resistance (ohms); infinite in cutoff."""
        if self.gds <= 0.0:
            return math.inf
        return 1.0 / self.gds

    @property
    def gm_over_id(self) -> float:
        """Transconductance efficiency gm/Id (1/V); zero in cutoff."""
        if self.id <= 0.0:
            return 0.0
        return self.gm / self.id


class Mosfet:
    """A behavioural MOSFET evaluated at explicit terminal voltages.

    The model works in polarity-normalised voltages: PMOS devices are handled
    by flipping the sign of the applied ``vgs`` / ``vds`` so that the same
    equations serve both polarities.  All currents are returned as positive
    magnitudes flowing drain-to-source (NMOS) or source-to-drain (PMOS).
    """

    def __init__(self, params: MosfetParameters) -> None:
        self.params = params
        self._vth, _, self._lambda, _ = device_constants(params.technology,
                                                         params.polarity)
        self._beta = params.beta
        self._theta = params.technology.theta

    # -- static helpers -----------------------------------------------------

    @classmethod
    def nmos(cls, width: float, length: float,
             technology: Technology = UMC65_LIKE) -> "Mosfet":
        """Construct an NMOS device."""
        return cls(MosfetParameters(width, length, MosfetPolarity.NMOS, technology))

    @classmethod
    def pmos(cls, width: float, length: float,
             technology: Technology = UMC65_LIKE) -> "Mosfet":
        """Construct a PMOS device."""
        return cls(MosfetParameters(width, length, MosfetPolarity.PMOS, technology))

    # -- DC model -----------------------------------------------------------

    def _current(self, nvgs: float, nvds: float) -> float:
        """Drain current at polarity-normalised voltages: the id-only law
        the scalar solvers iterate on."""
        vov = nvgs - self._vth
        cutoff, saturated = region_test(vov, nvds)
        if cutoff:
            return 0.0
        _, beta_eff, clm = square_law_terms(self._beta, self._theta,
                                            self._lambda, vov, nvds)
        if saturated:
            return saturation_current(beta_eff, vov, clm)
        return triode_current(beta_eff, vov, nvds, clm)

    def drain_current(self, vgs: float, vds: float) -> float:
        """Drain current magnitude (A) at the given terminal voltages."""
        return self._current(*normalise(self.params.polarity, vgs, vds))

    def operating_point(self, vgs: float, vds: float) -> MosfetOperatingPoint:
        """Full DC operating point (current, gm, gds, region) at a bias."""
        nvgs, nvds = normalise(self.params.polarity, vgs, vds)
        vov = nvgs - self._vth
        cutoff, saturated = region_test(vov, nvds)
        if cutoff:
            id_ = gm = gds = 0.0
            region = MosfetRegion.CUTOFF
        else:
            beta, theta, lam = self._beta, self._theta, self._lambda
            degradation, beta_eff, clm = square_law_terms(beta, theta, lam,
                                                          vov, nvds)
            if saturated:
                id_ = saturation_current(beta_eff, vov, clm)
                gm, gds = saturation_slopes(beta, theta, lam, vov,
                                            degradation, beta_eff, clm)
                region = MosfetRegion.SATURATION
            else:
                id_ = triode_current(beta_eff, vov, nvds, clm)
                gm, gds = triode_slopes(beta_eff, lam, vov, nvds, clm)
                region = MosfetRegion.TRIODE
        return MosfetOperatingPoint(id=id_, gm=gm, gds=gds, region=region,
                                    vgs=nvgs, vds=nvds, vov=vov)

    # -- switch behaviour ---------------------------------------------------

    def on_resistance(self, vgs: float, vds: float = 10e-3) -> float:
        """Triode-region on-resistance (ohms) at a given gate drive.

        Evaluated at a small ``vds`` so the device sits deep in triode — the
        regime the paper uses for the PMOS degeneration switches (Fig. 5a)
        and the transmission-gate load (Fig. 5b).  Returns ``inf`` when the
        device is off.  The sign of ``vds`` is normalised to the polarity, so
        callers can always pass a small positive magnitude.
        """
        vds = polarity_sign(self.params.polarity) * abs(vds)
        op = self.operating_point(vgs, vds)
        if op.region is MosfetRegion.CUTOFF or op.id <= 0.0:
            return math.inf
        return vds / op.id if op.gds == 0.0 else max(vds / op.id, 1.0 / (op.gds + op.gm))

    def is_on(self, vgs: float) -> bool:
        """True when the gate drive exceeds the threshold (switch closed)."""
        return polarity_sign(self.params.polarity) * vgs > self._vth

    # -- bias solving -------------------------------------------------------

    def vgs_for_current(self, target_id: float, vds: float,
                        tolerance: float = 1e-12, max_iterations: int = 200) -> float:
        """Gate-source voltage that produces ``target_id`` at the given ``vds``.

        Solved by bisection on the polarity-normalised ``vgs``; the returned
        value is in the device's own sign convention (negative for PMOS).
        """
        if target_id < 0:
            raise ValueError("target drain current must be non-negative")
        if target_id == 0.0:
            return 0.0

        lo = self._vth
        hi = self._vth + 3.0  # generous upper bound on the overdrive
        nvds = abs(vds)
        if self._current(hi, nvds) < target_id:
            raise ValueError(
                f"target current {target_id:.3g} A is unreachable for this geometry"
            )
        for _ in range(max_iterations):
            mid = 0.5 * (lo + hi)
            if self._current(mid, nvds) < target_id:
                lo = mid
            else:
                hi = mid
            if hi - lo < tolerance:
                break
        return polarity_sign(self.params.polarity) * 0.5 * (lo + hi)

    def width_for_resistance(self, target_r_on: float, vgs: float,
                             length: float | None = None) -> float:
        """Width giving a target triode on-resistance at a gate drive.

        Used when sizing the PMOS degeneration switches and the transmission
        gate: the paper states the switch W/L is "chosen to provide
        degeneration resistance".
        """
        if target_r_on <= 0:
            raise ValueError("target on-resistance must be positive")
        length = length if length is not None else self.params.length
        vov = polarity_sign(self.params.polarity) * vgs - self._vth
        if vov <= 0:
            raise ValueError("device is off at the requested gate drive")
        degradation = mobility_degradation(self._theta, vov)
        # Deep-triode conductance: g = beta_eff * vov.
        beta_required = 1.0 / (target_r_on * vov) * degradation
        return beta_required * length / self.params.u_cox

    # -- noise --------------------------------------------------------------

    def thermal_noise_current_density(self, gm: float) -> float:
        """Channel thermal-noise current density ``sqrt(4 k T gamma gm)`` (A/sqrt(Hz))."""
        if gm < 0:
            raise ValueError("gm must be non-negative")
        tech = self.params.technology
        return math.sqrt(4.0 * BOLTZMANN * tech.temperature * tech.gamma_noise * gm)

    def flicker_noise_voltage_density(self, frequency: float) -> float:
        """Input-referred flicker-noise voltage density (V/sqrt(Hz)) at ``frequency``."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        p = self.params
        psd = p.kf / (p.gate_capacitance * frequency)
        return math.sqrt(psd)

    def flicker_corner_frequency(self, gm: float) -> float:
        """Frequency where flicker noise equals channel thermal noise (Hz)."""
        if gm <= 0:
            return 0.0
        p = self.params
        tech = p.technology
        thermal_v_psd = 4.0 * BOLTZMANN * tech.temperature * tech.gamma_noise / gm
        flicker_numerator = p.kf / p.gate_capacitance
        return flicker_numerator / thermal_v_psd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p = self.params
        return (
            f"Mosfet({p.polarity.value}, W={p.width * 1e6:.2f}um, "
            f"L={p.length * 1e9:.0f}nm)"
        )


@dataclass(frozen=True)
class MosfetArrayOperatingPoint:
    """Elementwise small-signal operating points of a :class:`MosfetArray`.

    The array counterpart of :class:`MosfetOperatingPoint`: every field
    holds one value per bank element, from the same module functions the
    scalar model calls, so ``bank.operating_point(vgs, vds).gm[i]`` is the
    scalar ``Mosfet.operating_point(...).gm`` of that element.
    """

    id: np.ndarray
    gm: np.ndarray
    gds: np.ndarray
    vgs: np.ndarray
    vds: np.ndarray
    vov: np.ndarray

    @property
    def regions(self) -> list[MosfetRegion]:
        """Operating region per element (derived from ``vov``/``vds``)."""
        cutoff, saturated = region_test(self.vov, self.vds)
        return [MosfetRegion.CUTOFF if off else
                MosfetRegion.SATURATION if sat else MosfetRegion.TRIODE
                for off, sat in zip(cutoff.flat, saturated.flat)]


class MosfetArray:
    """A bank of behavioural MOSFETs evaluated elementwise with NumPy.

    Geometry and technology constants may vary per element (one device per
    Monte-Carlo corner), the polarity is shared.

    The bank calls the same square-law functions as the scalar
    :class:`Mosfet` on columns of per-element constants and selects the
    region with ``np.where``; elementwise IEEE arithmetic then returns
    exactly the scalar model's doubles, which
    ``tests/test_sizing_batch.py`` checks element by element.
    """

    def __init__(self, widths, lengths,
                 polarity: MosfetPolarity = MosfetPolarity.NMOS,
                 technologies: Sequence[Technology] | Technology = UMC65_LIKE
                 ) -> None:
        width = np.atleast_1d(np.asarray(widths, dtype=float))
        length = np.broadcast_to(
            np.asarray(lengths, dtype=float), width.shape).astype(float)
        if width.ndim != 1:
            raise ValueError("MosfetArray widths must be one-dimensional")
        if np.any(width <= 0) or np.any(length <= 0):
            raise ValueError("MOSFET width and length must be positive")
        if isinstance(technologies, Technology):
            technologies = [technologies] * width.size
        technologies = list(technologies)
        if len(technologies) != width.size:
            raise ValueError(
                f"got {len(technologies)} technologies for {width.size} "
                "devices; they must match one-to-one (or pass a single "
                "Technology shared by the whole bank)")
        l_min = np.array([t.l_min for t in technologies], dtype=float)
        if np.any(length < l_min * 0.999):
            raise ValueError(
                "channel length below the technology minimum for at least "
                "one bank element")
        self.width = width
        self.length = length
        self.polarity = polarity
        self.technologies = technologies
        self._vth, self._u_cox, self._lambda, _ = (
            np.array(column, dtype=float) for column in
            zip(*(device_constants(t, polarity) for t in technologies)))
        self._theta = np.array([t.theta for t in technologies], dtype=float)

    # -- static helpers -----------------------------------------------------

    @classmethod
    def nmos(cls, widths, lengths,
             technologies: Sequence[Technology] | Technology = UMC65_LIKE
             ) -> "MosfetArray":
        """Construct an NMOS bank."""
        return cls(widths, lengths, MosfetPolarity.NMOS, technologies)

    @classmethod
    def pmos(cls, widths, lengths,
             technologies: Sequence[Technology] | Technology = UMC65_LIKE
             ) -> "MosfetArray":
        """Construct a PMOS bank."""
        return cls(widths, lengths, MosfetPolarity.PMOS, technologies)

    def __len__(self) -> int:
        return int(self.width.size)

    def element(self, index: int) -> Mosfet:
        """The scalar :class:`Mosfet` equivalent of one bank element."""
        return Mosfet(MosfetParameters(
            float(self.width[index]), float(self.length[index]),
            self.polarity, self.technologies[index]))

    @property
    def beta(self) -> np.ndarray:
        """Per-element transconductance factor ``u_cox * W / L`` (A/V^2)."""
        return self._u_cox * (self.width / self.length)

    # -- DC model -----------------------------------------------------------

    def _current(self, nvgs: np.ndarray,
                 nvds: np.ndarray) -> tuple[np.ndarray, ...]:
        """Drain current at normalised voltage arrays, plus the terms
        :meth:`operating_point` reuses for gm/gds."""
        vov = nvgs - self._vth
        cutoff, saturated = region_test(vov, nvds)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms = square_law_terms(self.beta, self._theta, self._lambda,
                                     vov, nvds)
            _, beta_eff, clm = terms
            id_ = np.where(cutoff, 0.0, np.where(
                saturated, saturation_current(beta_eff, vov, clm),
                triode_current(beta_eff, vov, nvds, clm)))
        return id_, vov, cutoff, saturated, terms

    def _normalise(self, vgs, vds) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast the bias to the bank, then flip signs for PMOS."""
        return normalise(self.polarity, *(
            np.broadcast_to(np.asarray(v, dtype=float),
                            self.width.shape).astype(float)
            for v in (vgs, vds)))

    def operating_point(self, vgs, vds) -> MosfetArrayOperatingPoint:
        """Per-element DC operating points at (broadcastable) bias arrays."""
        nvgs, nvds = self._normalise(vgs, vds)
        id_, vov, cutoff, saturated, (degradation, beta_eff, clm) = \
            self._current(nvgs, nvds)
        lam = self._lambda
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gm_sat, gds_sat = saturation_slopes(
                self.beta, self._theta, lam, vov, degradation, beta_eff, clm)
            gm_tri, gds_tri = triode_slopes(beta_eff, lam, vov, nvds, clm)
        return MosfetArrayOperatingPoint(
            id=id_, vgs=nvgs, vds=nvds, vov=vov,
            gm=np.where(cutoff, 0.0, np.where(saturated, gm_sat, gm_tri)),
            gds=np.where(cutoff, 0.0, np.where(saturated, gds_sat, gds_tri)))

    def drain_current(self, vgs, vds) -> np.ndarray:
        """Per-element drain current magnitude (A), bit-equal to the scalar.

        The id-only counterpart of :meth:`operating_point` for iterative
        solvers: it skips gm/gds.
        """
        return self._current(*self._normalise(vgs, vds))[0]

    # -- bias solving -------------------------------------------------------

    def vgs_for_current(self, target_id, vds, tolerance: float = 1e-12,
                        max_iterations: int = 200,
                        names: Sequence[str] | None = None) -> np.ndarray:
        """Per-element gate bias producing ``target_id``: a masked bisection.

        The array twin of :meth:`Mosfet.vgs_for_current` for positive
        targets: every element replays the scalar bisection step for step
        and stops on the same iteration, so each result is bit-equal to
        the scalar solve.  Raises :class:`ValueError` with the scalar
        message for every unreachable element, named by ``names`` (one per
        element) or by index.
        """
        shape = self.width.shape
        target = np.broadcast_to(np.asarray(target_id, dtype=float), shape)
        if np.any(target <= 0.0):
            raise ValueError("bank bias targets must be positive")
        nvds = np.abs(np.broadcast_to(np.asarray(vds, dtype=float), shape))
        lo = self._vth.copy()
        hi = self._vth + 3.0  # generous upper bound on the overdrive

        def below(nvgs: np.ndarray) -> np.ndarray:
            return self._current(nvgs, nvds)[0] < target

        unreachable = np.flatnonzero(below(hi))
        if unreachable.size:
            raise ValueError("; ".join(
                f"{names[index] if names is not None else f'element[{index}]'}"
                f": target current {target[index]:.3g} A is unreachable "
                "for this geometry" for index in unreachable))
        active = np.ones(shape, dtype=bool)
        for _ in range(max_iterations):
            mid = 0.5 * (lo + hi)
            low = below(mid)
            lo = np.where(active & low, mid, lo)
            hi = np.where(active & ~low, mid, hi)
            active &= ~(hi - lo < tolerance)
            if not active.any():
                break
        return polarity_sign(self.polarity) * 0.5 * (lo + hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MosfetArray({self.polarity.value}, n={len(self)}, "
                f"W=[{self.width.min() * 1e6:.2f}.."
                f"{self.width.max() * 1e6:.2f}]um)")
