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
    def aspect_ratio(self) -> float:
        """W/L ratio."""
        return self.width / self.length

    @property
    def vth(self) -> float:
        """Threshold voltage magnitude for this polarity (V)."""
        tech = self.technology
        return tech.vth_n if self.polarity is MosfetPolarity.NMOS else tech.vth_p

    @property
    def u_cox(self) -> float:
        """Process transconductance parameter for this polarity (A/V^2)."""
        tech = self.technology
        return tech.u_cox_n if self.polarity is MosfetPolarity.NMOS else tech.u_cox_p

    @property
    def lambda_clm(self) -> float:
        """Channel-length modulation coefficient for this polarity (1/V)."""
        tech = self.technology
        return tech.lambda_n if self.polarity is MosfetPolarity.NMOS else tech.lambda_p

    @property
    def kf(self) -> float:
        """Flicker-noise coefficient for this polarity (V^2*F)."""
        tech = self.technology
        return tech.kf_n if self.polarity is MosfetPolarity.NMOS else tech.kf_p

    @property
    def beta(self) -> float:
        """Device transconductance factor ``u_cox * W / L`` (A/V^2)."""
        return self.u_cox * self.aspect_ratio

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

    # -- normalisation ------------------------------------------------------

    def _normalise(self, vgs: float, vds: float) -> tuple[float, float]:
        """Flip signs for PMOS so the square-law equations see NMOS-like voltages."""
        if self.params.polarity is MosfetPolarity.PMOS:
            return -vgs, -vds
        return vgs, vds

    # -- DC model -----------------------------------------------------------

    def drain_current(self, vgs: float, vds: float) -> float:
        """Drain current magnitude (A) at the given terminal voltages."""
        return self.operating_point(vgs, vds).id

    def operating_point(self, vgs: float, vds: float) -> MosfetOperatingPoint:
        """Full DC operating point (current, gm, gds, region) at a bias."""
        nvgs, nvds = self._normalise(vgs, vds)
        p = self.params
        vov = nvgs - p.vth
        theta = p.technology.theta
        lam = p.lambda_clm
        beta = p.beta

        if vov <= 0.0 or nvds < 0.0:
            # Cutoff (we do not model sub-threshold conduction; the design
            # never relies on it).  Reverse vds is also treated as off.
            return MosfetOperatingPoint(
                id=0.0, gm=0.0, gds=0.0, region=MosfetRegion.CUTOFF,
                vgs=nvgs, vds=nvds, vov=vov,
            )

        # Mobility degradation: effective beta drops with overdrive.  This is
        # the third-order nonlinearity source for the transconductor.
        degradation = 1.0 + theta * vov
        beta_eff = beta / degradation
        vdsat = vov

        if nvds >= vdsat:
            # Saturation.
            id_sat = 0.5 * beta_eff * vov * vov * (1.0 + lam * nvds)
            # gm = d id / d vgs including the degradation term.
            gm = beta * vov * (1.0 + 0.5 * theta * vov) / (degradation ** 2)
            gm *= (1.0 + lam * nvds)
            gds = 0.5 * beta_eff * vov * vov * lam
            return MosfetOperatingPoint(
                id=id_sat, gm=gm, gds=gds, region=MosfetRegion.SATURATION,
                vgs=nvgs, vds=nvds, vov=vov,
            )

        # Triode.
        id_tri = beta_eff * (vov * nvds - 0.5 * nvds * nvds) * (1.0 + lam * nvds)
        gm = beta_eff * nvds * (1.0 + lam * nvds)
        gds = beta_eff * (vov - nvds) * (1.0 + lam * nvds) \
            + beta_eff * (vov * nvds - 0.5 * nvds * nvds) * lam
        return MosfetOperatingPoint(
            id=id_tri, gm=gm, gds=gds, region=MosfetRegion.TRIODE,
            vgs=nvgs, vds=nvds, vov=vov,
        )

    # -- switch behaviour ---------------------------------------------------

    def on_resistance(self, vgs: float, vds: float = 10e-3) -> float:
        """Triode-region on-resistance (ohms) at a given gate drive.

        Evaluated at a small ``vds`` so the device sits deep in triode — the
        regime the paper uses for the PMOS degeneration switches (Fig. 5a)
        and the transmission-gate load (Fig. 5b).  Returns ``inf`` when the
        device is off.  The sign of ``vds`` is normalised to the polarity, so
        callers can always pass a small positive magnitude.
        """
        if self.params.polarity is MosfetPolarity.PMOS:
            vds = -abs(vds)
        else:
            vds = abs(vds)
        op = self.operating_point(vgs, vds)
        if op.region is MosfetRegion.CUTOFF or op.id <= 0.0:
            return math.inf
        return vds / op.id if op.gds == 0.0 else max(vds / op.id, 1.0 / (op.gds + op.gm))

    def is_on(self, vgs: float) -> bool:
        """True when the gate drive exceeds the threshold (switch closed)."""
        nvgs, _ = self._normalise(vgs, 0.0)
        return nvgs > self.params.vth

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
            return 0.0 if self.params.polarity is MosfetPolarity.NMOS else 0.0

        p = self.params
        lo = p.vth
        hi = p.vth + 3.0  # generous upper bound on the overdrive
        sign = 1.0 if p.polarity is MosfetPolarity.NMOS else -1.0
        nvds = abs(vds)

        def current_at(nvgs: float) -> float:
            return self.operating_point(sign * nvgs, sign * nvds).id

        if current_at(hi) < target_id:
            raise ValueError(
                f"target current {target_id:.3g} A is unreachable for this geometry"
            )
        for _ in range(max_iterations):
            mid = 0.5 * (lo + hi)
            if current_at(mid) < target_id:
                lo = mid
            else:
                hi = mid
            if hi - lo < tolerance:
                break
        return sign * 0.5 * (lo + hi)

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
        nvgs, _ = self._normalise(vgs, 0.0)
        vov = nvgs - self.params.vth
        if vov <= 0:
            raise ValueError("device is off at the requested gate drive")
        degradation = 1.0 + self.params.technology.theta * vov
        # Deep-triode conductance: g = beta_eff * vov.
        beta_required = 1.0 / (target_r_on * vov) * degradation
        width = beta_required * length / self.params.u_cox
        return width

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

    The array twin of :class:`MosfetOperatingPoint`: every field holds one
    value per bank element, computed by the same operation sequence as the
    scalar model, so ``bank.operating_point(vgs, vds).gm[i]`` is bit-equal
    to the corresponding scalar ``Mosfet.operating_point(...).gm``.
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
        cutoff = (self.vov <= 0.0) | (self.vds < 0.0)
        saturated = ~cutoff & (self.vds >= self.vov)
        out = []
        for index in range(self.id.size):
            if cutoff.flat[index]:
                out.append(MosfetRegion.CUTOFF)
            elif saturated.flat[index]:
                out.append(MosfetRegion.SATURATION)
            else:
                out.append(MosfetRegion.TRIODE)
        return out


class MosfetArray:
    """A bank of behavioural MOSFETs evaluated elementwise with NumPy.

    Geometry and technology constants may vary per element (one device per
    Monte-Carlo corner), the polarity is shared.

    **Bit-identity contract**: every derived quantity is computed with the
    same IEEE-754 operation sequence (same association order, same literal
    constants) as the scalar :class:`Mosfet`, so a bank evaluation returns
    exactly the scalar model's doubles, gated elementwise in
    ``tests/test_sizing_batch.py``.
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
        nmos = polarity is MosfetPolarity.NMOS
        self._vth = np.array(
            [t.vth_n if nmos else t.vth_p for t in technologies], dtype=float)
        self._u_cox = np.array(
            [t.u_cox_n if nmos else t.u_cox_p for t in technologies],
            dtype=float)
        self._lambda = np.array(
            [t.lambda_n if nmos else t.lambda_p for t in technologies],
            dtype=float)
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
        """Drain current plus the terms ``_evaluate`` reuses for gm/gds.

        Every arithmetic expression below mirrors a line of the scalar
        :meth:`Mosfet.operating_point` with identical association order;
        region selection happens through masks instead of branches, which
        cannot perturb the per-element doubles.
        """
        vov = nvgs - self._vth
        cutoff = (vov <= 0.0) | (nvds < 0.0)
        saturated = ~cutoff & (nvds >= vov)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            degradation = 1.0 + self._theta * vov
            beta_eff = self.beta / degradation
            clm = 1.0 + self._lambda * nvds
            id_sat = 0.5 * beta_eff * vov * vov * clm
            id_tri = beta_eff * (vov * nvds - 0.5 * nvds * nvds) * clm
            id_ = np.where(cutoff, 0.0, np.where(saturated, id_sat, id_tri))
        return id_, vov, cutoff, saturated, degradation, beta_eff, clm

    def _evaluate(self, nvgs: np.ndarray,
                  nvds: np.ndarray) -> tuple[np.ndarray, ...]:
        """The square-law equations on polarity-normalised voltage arrays."""
        id_, vov, cutoff, saturated, degradation, beta_eff, clm = \
            self._current(nvgs, nvds)
        beta = self.beta
        theta = self._theta
        lam = self._lambda
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # The scalar model writes ``degradation ** 2``, which CPython
            # routes through libm pow() — occasionally 1 ulp away from the
            # x*x that numpy lowers ``arr ** 2`` to; float_power is pow().
            deg_sq = np.float_power(degradation, 2.0)
            gm_sat = beta * vov * (1.0 + 0.5 * theta * vov) / deg_sq
            gm_sat = gm_sat * clm
            gds_sat = 0.5 * beta_eff * vov * vov * lam
            gm_tri = beta_eff * nvds * clm
            gds_tri = beta_eff * (vov - nvds) * clm \
                + beta_eff * (vov * nvds - 0.5 * nvds * nvds) * lam
            gm = np.where(cutoff, 0.0, np.where(saturated, gm_sat, gm_tri))
            gds = np.where(cutoff, 0.0,
                           np.where(saturated, gds_sat, gds_tri))
        return id_, gm, gds, vov

    def _normalise(self, vgs, vds) -> tuple[np.ndarray, np.ndarray]:
        """Flip signs for PMOS, exactly like the scalar model."""
        nvgs = np.broadcast_to(np.asarray(vgs, dtype=float),
                               self.width.shape).astype(float)
        nvds = np.broadcast_to(np.asarray(vds, dtype=float),
                               self.width.shape).astype(float)
        if self.polarity is MosfetPolarity.PMOS:
            return -nvgs, -nvds
        return nvgs, nvds

    def operating_point(self, vgs, vds) -> MosfetArrayOperatingPoint:
        """Per-element DC operating points at (broadcastable) bias arrays."""
        nvgs, nvds = self._normalise(vgs, vds)
        id_, gm, gds, vov = self._evaluate(nvgs, nvds)
        return MosfetArrayOperatingPoint(id=id_, gm=gm, gds=gds,
                                         vgs=nvgs, vds=nvds, vov=vov)

    def drain_current(self, vgs, vds) -> np.ndarray:
        """Per-element drain current magnitude (A), bit-equal to the scalar.

        The id-only twin of :meth:`operating_point` for iterative solvers:
        it skips gm/gds.
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
        sign = 1.0 if self.polarity is MosfetPolarity.NMOS else -1.0
        nvds = np.abs(np.broadcast_to(np.asarray(vds, dtype=float), shape))
        lo = self._vth.copy()
        hi = self._vth + 3.0  # generous upper bound on the overdrive

        def below(nvgs: np.ndarray) -> np.ndarray:
            return self.drain_current(sign * nvgs, sign * nvds) < target

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
        return sign * 0.5 * (lo + hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MosfetArray({self.polarity.value}, n={len(self)}, "
                f"W=[{self.width.min() * 1e6:.2f}.."
                f"{self.width.max() * 1e6:.2f}]um)")
