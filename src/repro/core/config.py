"""Design parameters, operating modes and paper-reported targets.

:class:`MixerDesign` is the single source of truth for the circuit-level
quantities every block derives its behaviour from — bias currents, device
sizes, feedback and load component values, supply voltage.  The defaults are
chosen so that the *derived* behavioural specs land on the paper's reported
numbers (Table I); DESIGN.md documents how each default maps back to a
statement in the paper.

:class:`PaperTargets` records the numbers the paper itself reports, so the
benchmark harness can print paper-vs-measured tables without hard-coding the
values in multiple places.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, fields, replace

from repro.devices.technology import Technology, UMC65_LIKE
from repro.units import ghz, mhz


class MixerMode(enum.Enum):
    """The two configurations of the reconfigurable mixer.

    ``ACTIVE``  — common-source Gilbert cell, transmission-gate load, TIA off.
    ``PASSIVE`` — current-commutating quad with PMOS degeneration, TIA on.
    """

    ACTIVE = "active"
    PASSIVE = "passive"

    @property
    def vlogic(self) -> int:
        """Logic level applied to the PMOS mode switches Mp1/Mp2 (Fig. 5a).

        The paper sets ``Vlogic`` low (0) in passive mode so the TCA current
        flows straight into the quad, and high (1) in active mode.
        """
        return 1 if self is MixerMode.ACTIVE else 0


@dataclass(frozen=True)
class MixerDesign:
    """Circuit-level parameters of the reconfigurable mixer.

    Every attribute corresponds to a quantity the paper names explicitly or
    that is required to realise a quantity it reports.  Blocks never invent
    their own constants — they derive everything from an instance of this
    class (plus the :class:`~repro.devices.technology.Technology`).

    Attributes
    ----------
    technology:
        Process constants (65 nm-class, 1.2 V).
    lo_frequency:
        Nominal LO frequency used by the headline measurements (2.4 GHz).
    if_frequency:
        Nominal IF at which Table I quantities are quoted (5 MHz).
    tca_bias_current:
        Total bias current of the fully differential transconductor (A).
    tca_gm:
        Target single-ended transconductance of the TCA / active-mode Gm MOS
        (S); the device widths are solved from this and the bias current.
    gm_device_length:
        Channel length of the Gm devices (m); slightly above minimum for
        lower flicker noise.
    active_core_current:
        Additional bias current drawn by the Gilbert core in active mode (A).
    lo_chain_current:
        Bias current of the LO buffers / common-mode feedback shared by both
        modes (A).
    tia_supply_current:
        TIA current in passive mode (the paper: "The TIA draws a total of
        3.3 mA from the supply").
    degeneration_resistance:
        On-resistance of the PMOS switches Sw1-2 acting as source
        degeneration in passive mode (ohms).
    quad_switch_width / quad_switch_length:
        Geometry of the four NMOS switching devices.
    feedback_resistance / feedback_capacitance:
        TIA feedback network R_F, C_F (equation 3 / 4).
    load_resistance / load_capacitance:
        Transmission-gate load resistance and C_c low-pass capacitor used in
        active mode.
    ota_dc_gain_db / ota_gain_bandwidth:
        Open-loop characteristics of the two-stage Miller OTA.
    output_swing_limit:
        Peak *differential* output swing before hard limiting (V); the paper
        attributes the low-IF compression point to the OTA output swing.
        Each single-ended output swings half of this around mid-rail.
    parasitic_capacitance:
        C_PAR at the transconductor output node; sets the upper RF band edge.
    coupling_capacitance_active / coupling_capacitance_passive:
        Effective series coupling capacitances of the two signal paths; they
        set the lower RF band edges (1 GHz active, 0.5 GHz passive).
    band_node_resistance_active / band_node_resistance_passive:
        Impedance presented at the transconductor output node in each mode
        (the load reflected through the switching quad); together with
        C_PAR it sets the upper RF band edge (5.5 GHz / 5.1 GHz).
    active_output_ip3_factor:
        Output third-order intercept voltage of the active-mode load network,
        expressed as a multiple of VDD (models the triode TG load and the
        finite Gilbert-core headroom).
    passive_quad_iip3_dbm:
        Input-referred IIP3 of the passive quad's on-resistance modulation
        (the mechanism analysed in the paper's reference [6]).
    switching_noise_excess:
        Excess noise factor contributed by the commutating quad (LO-edge
        noise folding), added on top of the analytic device noise.
    active_flicker_corner / passive_flicker_corner:
        1/f corner frequencies of the two modes; the passive corner must be
        below 100 kHz per the paper.
    differential_mismatch:
        Fractional mismatch between the two differential half-circuits; it
        sets the residual IIP2 (the paper reports > 65 dBm for both modes).
    """

    technology: Technology = UMC65_LIKE
    lo_frequency: float = ghz(2.4)
    if_frequency: float = mhz(5.0)

    # Bias plan (section III: 9.36 mW active / 9.24 mW passive at 1.2 V).
    tca_bias_current: float = 3.4e-3
    tca_gm: float = 15.0e-3
    gm_device_length: float = 100e-9
    active_core_current: float = 3.4e-3
    lo_chain_current: float = 1.0e-3
    tia_supply_current: float = 3.3e-3

    # Passive-mode path.
    degeneration_resistance: float = 50.0
    quad_switch_width: float = 40e-6
    quad_switch_length: float = 65e-9
    feedback_resistance: float = 3.735e3
    feedback_capacitance: float = 2.3e-12

    # Active-mode path.
    load_resistance: float = 3.45e3
    load_capacitance: float = 2.6e-12

    # TIA / OTA.
    ota_dc_gain_db: float = 62.0
    ota_gain_bandwidth: float = 900e6
    output_swing_limit: float = 1.25

    # Wide-band response.
    parasitic_capacitance: float = 9.6e-15
    coupling_capacitance_active: float = 1.59e-12
    coupling_capacitance_passive: float = 3.18e-12
    band_node_resistance_active: float = 3.0e3
    band_node_resistance_passive: float = 3.25e3

    # Calibrated behavioural excess terms (documented in DESIGN.md §2).
    active_output_ip3_factor: float = 2.21
    passive_quad_iip3_dbm: float = 10.2
    switching_noise_excess: float = 1.1
    active_flicker_corner: float = 700e3
    passive_flicker_corner: float = 60e3
    differential_mismatch: float = 0.0005

    def __post_init__(self) -> None:
        if self.lo_frequency <= 0 or self.if_frequency <= 0:
            raise ValueError("LO and IF frequencies must be positive")
        if self.if_frequency >= self.lo_frequency:
            raise ValueError("IF frequency must be far below the LO frequency")
        for attribute in ("tca_bias_current", "tca_gm", "active_core_current",
                          "lo_chain_current", "tia_supply_current",
                          "feedback_resistance", "feedback_capacitance",
                          "load_resistance", "load_capacitance",
                          "output_swing_limit", "parasitic_capacitance"):
            if getattr(self, attribute) <= 0:
                raise ValueError(f"{attribute} must be positive")
        if self.degeneration_resistance < 0:
            raise ValueError("degeneration resistance cannot be negative")

    # -- derived convenience quantities --------------------------------------

    @property
    def vdd(self) -> float:
        """Supply voltage (V)."""
        return self.technology.vdd

    @property
    def rf_frequency(self) -> float:
        """Nominal RF frequency (LO + IF, low-side LO injection)."""
        return self.lo_frequency + self.if_frequency

    # -- identity -------------------------------------------------------------

    def canonical_dict(self) -> dict:
        """Every design parameter (technology included) as plain JSON types.

        The mapping is the canonical content of the record: two designs are
        interchangeable for any derived spec exactly when their canonical
        dictionaries are equal.  Keys are the dataclass field names; the
        nested :class:`~repro.devices.technology.Technology` appears under
        ``technology``.  Equal to ``dataclasses.asdict`` (without its deep
        copy: every design field is a float).
        """
        payload = {field.name: getattr(self, field.name)
                   for field in fields(self)}
        payload["technology"] = self.technology.to_dict()
        return payload

    def fingerprint(self) -> str:
        """Stable content hash of the design record (hex SHA-256).

        Unlike ``hash()``, the fingerprint is identical across processes and
        interpreter runs (string hashing is salted per process), so it can
        key on-disk artefacts such as the sweep engine's spec cache.  Any
        parameter change — including technology-corner shifts — changes it.

        Memoized per instance: the record is frozen, so the hash is computed
        once and rides along when the record is pickled.  The memo lives
        outside the dataclass fields, so ``==``, ``hash()`` and
        :meth:`canonical_dict` never see it, and ``dataclasses.replace``
        builds a record that hashes afresh.
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is None:
            payload = json.dumps(self.canonical_dict(), sort_keys=True,
                                 separators=(",", ":"))
            memo = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", memo)
        return memo

    def to_dict(self) -> dict:
        """JSON-ready design payload (the API's wire format for designs).

        Identical content to :meth:`canonical_dict`; the separate name marks
        the serialization contract: ``to_dict() -> json -> from_dict()``
        round-trips the record exactly, fingerprint included.
        """
        return self.canonical_dict()

    @classmethod
    def from_dict(cls, payload: dict) -> "MixerDesign":
        """Rebuild a design record from :meth:`to_dict` output.

        Every design field is a float and the nested technology round-trips
        through :meth:`Technology.from_dict`, so the rebuilt record compares
        equal to the original and ``fingerprint()`` is preserved bit-exactly
        — the property the request-level caches key on.  Unknown keys raise
        ``ValueError``; missing keys fall back to the defaults so older
        payloads keep deserializing after a new parameter grows a default.
        """
        if not isinstance(payload, dict):
            raise TypeError("design payload must be a mapping")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown design fields: {unknown}")
        values: dict = {}
        for name, value in payload.items():
            if name == "technology":
                values[name] = Technology.from_dict(value)
            else:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError(f"design field {name!r} must be a number, "
                                    f"got {type(value).__name__}")
                values[name] = float(value)
        return cls(**values)

    def with_lo(self, lo_frequency: float) -> "MixerDesign":
        """Copy of the design tuned to a different LO frequency."""
        return replace(self, lo_frequency=lo_frequency)

    def with_if(self, if_frequency: float) -> "MixerDesign":
        """Copy of the design with a different nominal IF."""
        return replace(self, if_frequency=if_frequency)

    def with_gain_setting(self, load_scale: float) -> "MixerDesign":
        """Copy with the load / feedback resistances scaled by ``load_scale``.

        The paper notes both modes offer gain tuning: the active mode through
        the transmission-gate resistance, the passive mode through R_F.
        """
        if load_scale <= 0:
            raise ValueError("load_scale must be positive")
        return replace(
            self,
            load_resistance=self.load_resistance * load_scale,
            feedback_resistance=self.feedback_resistance * load_scale,
        )


@dataclass(frozen=True)
class PaperTargets:
    """Numbers the paper reports for one mode (Table I plus body text)."""

    mode: MixerMode
    conversion_gain_db: float
    noise_figure_db: float
    iip3_dbm: float
    p1db_dbm: float
    power_mw: float
    band_low_ghz: float
    band_high_ghz: float
    iip2_dbm_min: float = 65.0
    supply_v: float = 1.2
    technology: str = "65nm"


PAPER_TARGETS_ACTIVE = PaperTargets(
    mode=MixerMode.ACTIVE,
    conversion_gain_db=29.2,
    noise_figure_db=7.6,
    iip3_dbm=-11.9,
    p1db_dbm=-24.5,
    power_mw=9.36,
    band_low_ghz=1.0,
    band_high_ghz=5.5,
)

PAPER_TARGETS_PASSIVE = PaperTargets(
    mode=MixerMode.PASSIVE,
    conversion_gain_db=25.5,
    noise_figure_db=10.2,
    iip3_dbm=6.57,
    p1db_dbm=-14.0,
    power_mw=9.24,
    band_low_ghz=0.5,
    band_high_ghz=5.1,
)


def paper_targets(mode: MixerMode) -> PaperTargets:
    """The paper's reported numbers for ``mode``."""
    return PAPER_TARGETS_ACTIVE if mode is MixerMode.ACTIVE else PAPER_TARGETS_PASSIVE


def default_design() -> MixerDesign:
    """The default design point used by examples, tests and benchmarks."""
    return MixerDesign()
