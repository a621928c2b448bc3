"""Toy Monte Carlo event generator for deep inelastic scattering.

The H1 analysis chains described in the paper start with "MC generation and
simulation".  This module provides a small parameterised generator of
neutral-current deep inelastic scattering (DIS) events at HERA kinematics
(27.6 GeV leptons on 920 GeV protons).  It is not a physics-accurate
generator; it produces events with realistic *structure* — steeply falling
Q² spectrum, correlated Bjorken-x, charged multiplicities growing with the
hadronic energy — so that downstream simulation, reconstruction and analysis
steps have meaningful inputs whose statistical properties are stable and
comparable across validation runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro._common import ValidationError
from repro.hepdata.event import (
    Event,
    EventRecord,
    FourVector,
    PARTICLE_MASSES,
    Particle,
)
from repro.hepdata.numerics import NumericContext, REFERENCE_CONTEXT


#: HERA beam energies in GeV.
LEPTON_BEAM_ENERGY = 27.6
PROTON_BEAM_ENERGY = 920.0


@dataclass(frozen=True)
class GeneratorSettings:
    """Physics settings of the toy generator.

    Attributes
    ----------
    process:
        Name of the simulated process, recorded in every event.
    q2_min / q2_max:
        Range of the negative four-momentum transfer squared, in GeV².
    mean_charged_multiplicity:
        Average charged multiplicity of the hadronic final state at the
        reference hadronic energy.
    cross_section_pb:
        Nominal cross section of the process in picobarn; used by the
        analysis step to normalise event yields into cross sections.
    """

    process: str = "nc_dis"
    q2_min: float = 4.0
    q2_max: float = 10000.0
    mean_charged_multiplicity: float = 8.0
    cross_section_pb: float = 8200.0

    def __post_init__(self) -> None:
        if self.q2_min <= 0 or self.q2_max <= self.q2_min:
            raise ValidationError("require 0 < q2_min < q2_max")
        if self.mean_charged_multiplicity <= 0:
            raise ValidationError("mean charged multiplicity must be positive")
        if self.cross_section_pb <= 0:
            raise ValidationError("cross section must be positive")


class MonteCarloGenerator:
    """Generates :class:`EventRecord` objects with DIS-like kinematics."""

    def __init__(
        self,
        settings: Optional[GeneratorSettings] = None,
        numeric_context: Optional[NumericContext] = None,
    ) -> None:
        self.settings = settings or GeneratorSettings()
        self.numeric_context = numeric_context or REFERENCE_CONTEXT

    def generate(self, n_events: int, seed: int = 1) -> EventRecord:
        """Generate *n_events* events using the deterministic *seed*."""
        if n_events < 0:
            raise ValidationError("cannot generate a negative number of events")
        # Scalar draws spell out numpy's own definitions on rng.random() and
        # rng.standard_normal(): uniform(a, b) is a + (b - a) * random() and
        # normal(0, s) is 0.0 + s * standard_normal().  They consume the same
        # stream and give the same bits without numpy's per-call overhead.
        rng = np.random.default_rng(seed)
        record = EventRecord()
        record.add_provenance(f"mc-generation:{self.settings.process}:seed={seed}")
        sqrt_s = math.sqrt(4.0 * LEPTON_BEAM_ENERGY * PROTON_BEAM_ENERGY)
        s = sqrt_s ** 2
        for event_number in range(n_events):
            q2 = self._sample_q2(rng)
            # y is bounded below by the kinematic limit Q^2 = s x y with x <= 1.
            y_min = max(q2 / s, 0.005)
            if y_min > 0.95:
                raise ValidationError(f"Q^2 = {q2} GeV^2 leaves no room for y <= 0.95")
            y = y_min + (0.95 - y_min) * rng.random()
            x = q2 / (s * y)
            x = min(max(x, 1e-5), 0.99)
            particles = self._build_final_state(rng, q2, y)
            event = Event(
                event_number=event_number,
                process=self.settings.process,
                q_squared=self.numeric_context.perturb_scalar(q2, f"q2:{event_number}"),
                bjorken_x=self.numeric_context.perturb_scalar(x, f"x:{event_number}"),
                inelasticity=y,
                particles=particles,
                weight=1.0,
            )
            record.append(event)
        return record

    def _sample_q2(self, rng: np.random.Generator) -> float:
        """Sample Q² from a 1/Q⁴-like falling spectrum within the configured range."""
        q2_min = self.settings.q2_min
        q2_max = self.settings.q2_max
        u = rng.random()
        # Inverse transform of f(Q^2) ~ 1/Q^4 between the bounds.
        inv_min = 1.0 / q2_min ** 3
        inv_max = 1.0 / q2_max ** 3
        value = (inv_min - u * (inv_min - inv_max)) ** (-1.0 / 3.0)
        return float(value)

    def _build_final_state(
        self, rng: np.random.Generator, q2: float, y: float
    ) -> List[Particle]:
        """Build a scattered lepton plus a hadronic final state."""
        particles: List[Particle] = []
        # Scattered electron: energy and angle follow from the kinematics in a
        # simplified (collinear) approximation.
        scattered_energy = max(LEPTON_BEAM_ENERGY * (1.0 - y) + q2 / (4.0 * LEPTON_BEAM_ENERGY), 0.5)
        cos_theta = 1.0 - q2 / (2.0 * LEPTON_BEAM_ENERGY * scattered_energy)
        cos_theta = max(-1.0, min(1.0, cos_theta))
        theta = math.acos(cos_theta)
        phi = 2.0 * math.pi * rng.random()
        pt = scattered_energy * math.sin(theta)
        pz = scattered_energy * math.cos(theta)
        lepton_vector = FourVector(
            energy=scattered_energy,
            px=pt * math.cos(phi),
            py=pt * math.sin(phi),
            pz=pz,
        )
        particles.append(Particle(pdg_code=11, four_vector=lepton_vector, charge=-1))

        # Hadronic final state: multiplicity scales with log of the hadronic
        # invariant mass W^2 ~ Q^2 (1 - x) / x, modelled here via y.
        hadronic_energy = y * PROTON_BEAM_ENERGY + q2 / (2.0 * PROTON_BEAM_ENERGY)
        mean_mult = self.settings.mean_charged_multiplicity * (
            0.5 + 0.5 * math.log1p(hadronic_energy) / math.log1p(PROTON_BEAM_ENERGY)
        )
        multiplicity = int(rng.poisson(mean_mult)) + 1
        # The hadronic system balances the scattered lepton in the transverse
        # plane and carries E - pz = 2 E_e y, so that the Jacquet-Blondel
        # reconstruction of y and Q^2 agrees with the electron method within
        # resolution effects — the consistency the validation tests check.
        recoil_px = -lepton_vector.px
        recoil_py = -lepton_vector.py
        fractions = rng.dirichlet(np.ones(multiplicity)) if multiplicity > 1 else np.array([1.0])
        total_e_minus_pz = 2.0 * LEPTON_BEAM_ENERGY * y
        scalar_pt_estimate = max(math.hypot(recoil_px, recoil_py), 0.2 * multiplicity)
        for index in range(multiplicity):
            pion_code = 211 if index % 2 == 0 else -211
            mass = PARTICLE_MASSES[pion_code]
            fraction = float(fractions[index])
            track_px = recoil_px * fraction + (0.0 + 0.15 * rng.standard_normal())
            track_py = recoil_py * fraction + (0.0 + 0.15 * rng.standard_normal())
            track_pt = max(math.hypot(track_px, track_py), 0.05)
            # Choose the longitudinal angle so the track carries its share of
            # the hadronic E - pz budget (with a mild spread).
            target_e_minus_pz = max(
                total_e_minus_pz * fraction * (0.7 + (1.3 - 0.7) * rng.random()), 1e-3
            )
            eta = math.log(track_pt / target_e_minus_pz)
            eta = max(min(eta, 6.0), -4.5)
            track_phi = math.atan2(track_py, track_px)
            vector = FourVector.from_pt_eta_phi(track_pt, eta, track_phi, mass)
            particles.append(
                Particle(
                    pdg_code=pion_code,
                    four_vector=vector,
                    charge=1 if pion_code > 0 else -1,
                )
            )
        return particles


def default_processes() -> List[GeneratorSettings]:
    """Generator settings for the processes used by the experiment suites."""
    return [
        GeneratorSettings(
            process="nc_dis", q2_min=4.0, q2_max=10000.0,
            mean_charged_multiplicity=8.0, cross_section_pb=8200.0,
        ),
        GeneratorSettings(
            process="cc_dis", q2_min=100.0, q2_max=20000.0,
            mean_charged_multiplicity=10.0, cross_section_pb=35.0,
        ),
        GeneratorSettings(
            process="photoproduction", q2_min=4.0, q2_max=100.0,
            mean_charged_multiplicity=12.0, cross_section_pb=165000.0,
        ),
        GeneratorSettings(
            process="heavy_flavour", q2_min=10.0, q2_max=1000.0,
            mean_charged_multiplicity=14.0, cross_section_pb=410.0,
        ),
    ]


__all__ = [
    "GeneratorSettings",
    "MonteCarloGenerator",
    "default_processes",
    "LEPTON_BEAM_ENERGY",
    "PROTON_BEAM_ENERGY",
]
