"""Event reconstruction: from detector-level particles to physics quantities.

The third stage of the analysis chains re-derives the event kinematics from
the measured particles (rather than from generator truth) and builds jets.
Two kinematic reconstruction methods are provided — the "electron method" and
the "Jacquet–Blondel" hadronic method — because having two independent
reconstructions of the same quantity is exactly the kind of internal
consistency the experiments' validation tests check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._common import ValidationError
from repro.hepdata.event import Event, EventRecord, FourVector, Particle
from repro.hepdata.generator import LEPTON_BEAM_ENERGY, PROTON_BEAM_ENERGY
from repro.hepdata.numerics import NumericContext, REFERENCE_CONTEXT

#: Transverse momentum, in GeV, a hadron needs to seed a jet cone.
JET_SEED_MIN_PT = 0.5


@dataclass(frozen=True)
class ReconstructedKinematics:
    """DIS kinematics reconstructed from the measured final state."""

    q_squared_electron: float
    bjorken_x_electron: float
    inelasticity_electron: float
    q_squared_jb: float
    inelasticity_jb: float
    has_scattered_lepton: bool

    def consistent(self, tolerance: float = 0.5) -> bool:
        """Check rough agreement between the electron and hadron methods."""
        if not self.has_scattered_lepton:
            return False
        if self.q_squared_electron <= 0 or self.q_squared_jb <= 0:
            return False
        ratio = self.q_squared_jb / self.q_squared_electron
        return (1.0 - tolerance) <= ratio <= (1.0 + 1.5 * tolerance)


@dataclass(frozen=True)
class Jet:
    """A reconstructed jet (simple cone clustering of the hadronic final state)."""

    four_vector: FourVector
    n_constituents: int

    @property
    def pt(self) -> float:
        """Transverse momentum of the jet."""
        return self.four_vector.pt


@dataclass
class ReconstructedEvent:
    """Full reconstruction output for one event."""

    event_number: int
    process: str
    kinematics: ReconstructedKinematics
    jets: List[Jet]
    charged_multiplicity: int
    transverse_energy: float
    weight: float = 1.0


class EventReconstruction:
    """Reconstructs kinematics and jets from detector-level events."""

    def __init__(
        self,
        numeric_context: Optional[NumericContext] = None,
        jet_min_pt: float = 4.0,
        jet_cone_radius: float = 1.0,
    ) -> None:
        if jet_min_pt <= 0:
            raise ValidationError("jet pt threshold must be positive")
        if jet_cone_radius <= 0:
            raise ValidationError("jet cone radius must be positive")
        self.numeric_context = numeric_context or REFERENCE_CONTEXT
        self.jet_min_pt = jet_min_pt
        self.jet_cone_radius = jet_cone_radius

    def reconstruct(self, record: EventRecord) -> List[ReconstructedEvent]:
        """Reconstruct every event in *record*."""
        reconstructed = []
        for event in record:
            reconstructed.append(self.reconstruct_event(event))
        return reconstructed

    def reconstruct_event(self, event: Event) -> ReconstructedEvent:
        """Reconstruct kinematics and jets for a single event."""
        kinematics = self._reconstruct_kinematics(event)
        jets = self._cluster_jets(event)
        return ReconstructedEvent(
            event_number=event.event_number,
            process=event.process,
            kinematics=kinematics,
            jets=jets,
            charged_multiplicity=event.charged_multiplicity,
            transverse_energy=self.numeric_context.perturb_scalar(
                event.transverse_energy(), f"et:{event.event_number}"
            ),
            weight=event.weight,
        )

    def _reconstruct_kinematics(self, event: Event) -> ReconstructedKinematics:
        """Electron-method and Jacquet–Blondel kinematic reconstruction."""
        lepton = event.scattered_lepton
        if lepton is not None:
            vector = lepton.four_vector
            energy = max(vector.energy, 1e-6)
            # The polar angle is measured from the incident lepton direction
            # (the +z axis of the toy event model), so the electron-method
            # formulae use sin^2(theta/2) for Q^2 and cos^2(theta/2) for y.
            theta = vector.theta
            q2_e = 4.0 * LEPTON_BEAM_ENERGY * energy * math.sin(theta / 2.0) ** 2
            y_e = 1.0 - (energy / LEPTON_BEAM_ENERGY) * math.cos(theta / 2.0) ** 2
            y_e = min(max(y_e, 1e-4), 1.0)
            s = 4.0 * LEPTON_BEAM_ENERGY * PROTON_BEAM_ENERGY
            x_e = q2_e / (s * y_e) if y_e > 0 else 0.0
            x_e = min(max(x_e, 0.0), 1.0)
            has_lepton = True
        else:
            q2_e, y_e, x_e = 0.0, 0.0, 0.0
            has_lepton = False

        # Jacquet–Blondel method from the hadronic final state.
        hadrons = event.hadronic_final_state
        sum_e_minus_pz = sum(
            particle.four_vector.energy - particle.four_vector.pz
            for particle in hadrons
        )
        sum_px = sum(particle.four_vector.px for particle in hadrons)
        sum_py = sum(particle.four_vector.py for particle in hadrons)
        y_jb = sum_e_minus_pz / (2.0 * LEPTON_BEAM_ENERGY)
        y_jb = min(max(y_jb, 1e-4), 1.0)
        pt_hadronic_sq = sum_px ** 2 + sum_py ** 2
        q2_jb = pt_hadronic_sq / max(1.0 - y_jb, 1e-4)

        tag = f"kin:{event.event_number}"
        return ReconstructedKinematics(
            q_squared_electron=self.numeric_context.perturb_scalar(q2_e, f"{tag}:q2e"),
            bjorken_x_electron=self.numeric_context.perturb_scalar(x_e, f"{tag}:xe"),
            inelasticity_electron=y_e,
            q_squared_jb=self.numeric_context.perturb_scalar(q2_jb, f"{tag}:q2jb"),
            inelasticity_jb=y_jb,
            has_scattered_lepton=has_lepton,
        )

    def _cluster_jets(self, event: Event) -> List[Jet]:
        """Greedy cone clustering of the hadronic final state."""
        hadrons = sorted(
            event.hadronic_final_state,
            key=lambda particle: particle.four_vector.pt,
            reverse=True,
        )
        if not hadrons or hadrons[0].four_vector.pt < JET_SEED_MIN_PT:
            return []
        # Each hadron's direction, computed once rather than once per seed:
        # the first seed's cone visits every hadron.
        etas = [self._pseudorapidity(hadron.four_vector) for hadron in hadrons]
        phis = [hadron.four_vector.phi for hadron in hadrons]
        used = [False] * len(hadrons)
        jets: List[Jet] = []
        for seed_index, seed in enumerate(hadrons):
            if used[seed_index]:
                continue
            if seed.four_vector.pt < JET_SEED_MIN_PT:
                break
            members = [seed_index]
            used[seed_index] = True
            seed_eta = etas[seed_index]
            seed_phi = phis[seed_index]
            for other_index in range(len(hadrons)):
                if used[other_index]:
                    continue
                d_eta = etas[other_index] - seed_eta
                d_phi = self._delta_phi(phis[other_index], seed_phi)
                if math.hypot(d_eta, d_phi) <= self.jet_cone_radius:
                    members.append(other_index)
                    used[other_index] = True
            total = FourVector(0.0, 0.0, 0.0, 0.0)
            for index in members:
                total = total + hadrons[index].four_vector
            if total.pt >= self.jet_min_pt:
                jets.append(Jet(four_vector=total, n_constituents=len(members)))
        return jets

    @staticmethod
    def _pseudorapidity(vector: FourVector) -> float:
        theta = vector.theta
        if theta <= 0.0:
            return 10.0
        if theta >= math.pi:
            return -10.0
        return -math.log(math.tan(theta / 2.0))

    @staticmethod
    def _delta_phi(phi_a: float, phi_b: float) -> float:
        delta = phi_a - phi_b
        while delta > math.pi:
            delta -= 2.0 * math.pi
        while delta < -math.pi:
            delta += 2.0 * math.pi
        return delta


__all__ = [
    "ReconstructedKinematics",
    "Jet",
    "ReconstructedEvent",
    "EventReconstruction",
]
