"""Parameterised detector simulation.

The second step of the H1 analysis chains is detector simulation.  Instead of
a full GEANT transport, this module applies a parameterised detector response
to generated events: finite acceptance, reconstruction efficiency, momentum
and energy smearing.  The response depends on the :class:`NumericContext`, so
that rebuilding the "simulation software" in a different environment produces
slightly different (benign) or badly different (defective) detector-level
events — which is precisely the signal the validation framework looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._common import ValidationError
from repro.hepdata.event import Event, EventRecord, FourVector, Particle
from repro.hepdata.numerics import NumericContext, REFERENCE_CONTEXT


@dataclass(frozen=True)
class DetectorSettings:
    """Parameterisation of the detector response.

    Attributes
    ----------
    name:
        Detector name recorded in the provenance (e.g. ``"H1-detector"``).
    track_efficiency:
        Probability that a charged particle inside the acceptance is
        reconstructed as a track.
    momentum_resolution:
        Relative Gaussian smearing of charged particle momenta.
    energy_resolution_stochastic:
        Stochastic term of the calorimeter resolution, sigma(E)/E = a/sqrt(E).
    min_pt:
        Transverse momentum threshold of the tracker, in GeV.
    max_abs_eta:
        Pseudorapidity acceptance limit.
    """

    name: str = "generic-detector"
    track_efficiency: float = 0.96
    momentum_resolution: float = 0.02
    energy_resolution_stochastic: float = 0.11
    min_pt: float = 0.06
    max_abs_eta: float = 3.5

    def __post_init__(self) -> None:
        if not 0.0 < self.track_efficiency <= 1.0:
            raise ValidationError("track efficiency must be in (0, 1]")
        if self.momentum_resolution < 0 or self.energy_resolution_stochastic < 0:
            raise ValidationError("resolutions must be non-negative")
        if self.min_pt < 0:
            raise ValidationError("min_pt must be non-negative")


class DetectorSimulation:
    """Applies the parameterised detector response to an event record."""

    def __init__(
        self,
        settings: Optional[DetectorSettings] = None,
        numeric_context: Optional[NumericContext] = None,
    ) -> None:
        self.settings = settings or DetectorSettings()
        self.numeric_context = numeric_context or REFERENCE_CONTEXT

    def simulate(self, record: EventRecord, seed: int = 2) -> EventRecord:
        """Return a detector-level copy of *record*."""
        # The scalar draws spell out numpy's definitions (see
        # MonteCarloGenerator.generate): the same stream, without numpy's
        # per-call overhead.
        rng = np.random.default_rng(seed)
        simulated = EventRecord(provenance=list(record.provenance))
        simulated.add_provenance(f"detector-simulation:{self.settings.name}:seed={seed}")
        for event in record:
            simulated.append(self._simulate_event(event, rng))
        return simulated

    def _simulate_event(self, event: Event, rng: np.random.Generator) -> Event:
        """Apply acceptance, efficiency and smearing to one event."""
        detected: List[Particle] = []
        for index, particle in enumerate(event.particles):
            if not self._in_acceptance(particle):
                continue
            if particle.is_charged and rng.random() > self.settings.track_efficiency:
                continue
            detected.append(self._smear(particle, rng, f"{event.event_number}:{index}"))
        return Event(
            event_number=event.event_number,
            process=event.process,
            q_squared=event.q_squared,
            bjorken_x=event.bjorken_x,
            inelasticity=event.inelasticity,
            particles=detected,
            weight=event.weight,
        )

    def _in_acceptance(self, particle: Particle) -> bool:
        """Geometric and kinematic acceptance of the detector."""
        vector = particle.four_vector
        if vector.pt < self.settings.min_pt:
            return False
        # Convert polar angle to pseudorapidity for the acceptance cut.
        theta = vector.theta
        if theta <= 0.0 or theta >= math.pi:
            return False
        eta = -math.log(math.tan(theta / 2.0))
        return abs(eta) <= self.settings.max_abs_eta

    def _smear(
        self, particle: Particle, rng: np.random.Generator, tag: str
    ) -> Particle:
        """Smear the particle's four vector according to the detector resolution."""
        vector = particle.four_vector
        if particle.is_charged:
            scale = 1.0 + (
                0.0 + self.settings.momentum_resolution * rng.standard_normal()
            )
        else:
            energy = max(vector.energy, 0.1)
            sigma = self.settings.energy_resolution_stochastic / math.sqrt(energy)
            scale = 1.0 + (0.0 + sigma * rng.standard_normal())
        scale = max(scale, 0.05)
        scale = self.numeric_context.perturb_scalar(scale, f"smear:{tag}")
        smeared = FourVector(
            energy=vector.energy * scale,
            px=vector.px * scale,
            py=vector.py * scale,
            pz=vector.pz * scale,
        )
        return Particle(
            pdg_code=particle.pdg_code,
            four_vector=smeared,
            charge=particle.charge,
            status=particle.status,
        )


def detector_for_experiment(experiment_name: str) -> DetectorSettings:
    """Return the detector parameterisation used by a given HERA experiment."""
    presets = {
        "H1": DetectorSettings(
            name="H1-detector",
            track_efficiency=0.97,
            momentum_resolution=0.018,
            energy_resolution_stochastic=0.11,
            min_pt=0.07,
            max_abs_eta=3.5,
        ),
        "ZEUS": DetectorSettings(
            name="ZEUS-detector",
            track_efficiency=0.96,
            momentum_resolution=0.020,
            energy_resolution_stochastic=0.18,
            min_pt=0.08,
            max_abs_eta=3.2,
        ),
        "HERMES": DetectorSettings(
            name="HERMES-spectrometer",
            track_efficiency=0.94,
            momentum_resolution=0.015,
            energy_resolution_stochastic=0.05,
            min_pt=0.06,
            max_abs_eta=3.0,
        ),
    }
    return presets.get(experiment_name, DetectorSettings())


__all__ = ["DetectorSettings", "DetectorSimulation", "detector_for_experiment"]
