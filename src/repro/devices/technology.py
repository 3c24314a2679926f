"""Process technology description for a 65 nm-class RF CMOS node.

The numbers here are representative of published 65 nm low-power RF CMOS
processes (V_th around 0.3-0.4 V, 1.2 V core supply, ~2 nm effective oxide).
They are *not* the proprietary UMC PDK values; the library only relies on
them being in the right ballpark so that bias points, switch resistances and
noise densities land where the paper's design text says they do.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Technology:
    """A bundle of process constants shared by all device models.

    Attributes
    ----------
    name:
        Human-readable identifier of the process corner.
    vdd:
        Nominal core supply voltage (V).
    vth_n / vth_p:
        Zero-bias threshold voltages of NMOS / PMOS devices (V); the PMOS
        value is given as a positive magnitude.
    u_cox_n / u_cox_p:
        Process transconductance parameter ``mu * C_ox`` (A/V^2) of NMOS and
        PMOS devices.
    lambda_n / lambda_p:
        Channel-length modulation coefficients (1/V) at the minimum length.
    theta:
        Mobility-degradation / velocity-saturation coefficient (1/V) used by
        the behavioural I-V model; this is the dominant source of odd-order
        nonlinearity (and therefore IIP3) in the transconductor.
    gamma_noise:
        Channel thermal-noise coefficient (2/3 long-channel, ~1.0-1.3 for
        short-channel 65 nm devices).
    kf_n / kf_p:
        Flicker-noise coefficients (V^2*F) for NMOS / PMOS; PMOS devices are
        quieter, which is why the switching quad uses NMOS only where it must.
    cox:
        Gate-oxide capacitance per unit area (F/m^2).
    l_min:
        Minimum drawn channel length (m).
    temperature:
        Simulation temperature (K).
    """

    name: str = "umc65-like"
    vdd: float = 1.2
    vth_n: float = 0.35
    vth_p: float = 0.33
    u_cox_n: float = 180e-6
    u_cox_p: float = 80e-6
    lambda_n: float = 0.20
    lambda_p: float = 0.25
    theta: float = 0.65
    gamma_noise: float = 1.1
    kf_n: float = 2.5e-25
    kf_p: float = 8.0e-26
    cox: float = 0.016
    l_min: float = 65e-9
    temperature: float = 300.0

    def scaled_supply(self, vdd: float) -> "Technology":
        """Return a copy of the technology with a different supply voltage."""
        if vdd <= 0:
            raise ValueError("supply voltage must be positive")
        return replace(self, vdd=vdd)

    def corner(self, name: str, vth_shift: float = 0.0,
               mobility_scale: float = 1.0) -> "Technology":
        """Derive a simple process corner.

        ``vth_shift`` is added to both threshold voltages; ``mobility_scale``
        multiplies both transconductance parameters.  This is deliberately a
        coarse model — enough to exercise corner sweeps in tests and
        benchmarks without pretending to be a foundry corner file.
        """
        if mobility_scale <= 0:
            raise ValueError("mobility_scale must be positive")
        return replace(
            self,
            name=name,
            vth_n=self.vth_n + vth_shift,
            vth_p=self.vth_p + vth_shift,
            u_cox_n=self.u_cox_n * mobility_scale,
            u_cox_p=self.u_cox_p * mobility_scale,
        )

    @property
    def mid_rail(self) -> float:
        """Common-mode voltage used by the design (VDD / 2, per the paper)."""
        return self.vdd / 2.0

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Every process constant as plain JSON types (field name -> value)."""
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Technology":
        """Rebuild a technology record from :meth:`to_dict` output.

        The round-trip is exact: ``name`` is a string and every other field a
        float, both of which JSON preserves bit-for-bit.  Unknown keys raise
        ``ValueError`` so a payload from a newer schema is never silently
        truncated into a different process.
        """
        if not isinstance(payload, dict):
            raise TypeError("technology payload must be a mapping")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown technology fields: {unknown}")
        values: dict = {}
        for name in payload:
            value = payload[name]
            if name == "name":
                if not isinstance(value, str):
                    raise TypeError("technology name must be a string")
                values[name] = value
            else:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError(f"technology field {name!r} must be a "
                                    f"number, got {type(value).__name__}")
                values[name] = float(value)
        return cls(**values)


#: The default technology instance used throughout the library.
UMC65_LIKE = Technology()


def nominal_technology() -> Technology:
    """Return the nominal 65 nm-class technology used by the paper's design."""
    return UMC65_LIKE


def slow_corner() -> Technology:
    """Slow-slow corner: higher thresholds, lower mobility."""
    return UMC65_LIKE.corner("umc65-like-ss", vth_shift=+0.04, mobility_scale=0.9)


def fast_corner() -> Technology:
    """Fast-fast corner: lower thresholds, higher mobility."""
    return UMC65_LIKE.corner("umc65-like-ff", vth_shift=-0.04, mobility_scale=1.1)
