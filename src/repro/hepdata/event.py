"""Event and particle model for the synthetic HEP data substrate.

The validation chains of the HERA experiments run from Monte Carlo generation
through detector simulation and reconstruction to physics analysis.  The real
experiments use their own Fortran/C++ event models; this module provides a
compact numpy-backed equivalent with just enough physics structure (four
vectors, particle identities, event records) for the validation framework to
produce and compare meaningful outputs across environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro._common import ValidationError


#: Particle identity codes used by the toy generator (a tiny PDG subset).
PARTICLE_CODES: Dict[str, int] = {
    "e-": 11,
    "e+": -11,
    "nu_e": 12,
    "mu-": 13,
    "mu+": -13,
    "photon": 22,
    "pi+": 211,
    "pi-": -211,
    "K+": 321,
    "K-": -321,
    "proton": 2212,
    "neutron": 2112,
}

PARTICLE_MASSES: Dict[int, float] = {
    11: 0.000511,
    -11: 0.000511,
    12: 0.0,
    13: 0.105658,
    -13: 0.105658,
    22: 0.0,
    211: 0.13957,
    -211: 0.13957,
    321: 0.493677,
    -321: 0.493677,
    2212: 0.938272,
    2112: 0.939565,
}


@dataclass(frozen=True)
class FourVector:
    """A relativistic four vector (E, px, py, pz) in GeV."""

    energy: float
    px: float
    py: float
    pz: float

    @property
    def pt(self) -> float:
        """Transverse momentum."""
        return math.hypot(self.px, self.py)

    @property
    def momentum(self) -> float:
        """Magnitude of the three momentum."""
        return math.sqrt(self.px ** 2 + self.py ** 2 + self.pz ** 2)

    @property
    def mass(self) -> float:
        """Invariant mass; clipped at zero for numerical safety."""
        m2 = self.energy ** 2 - self.momentum ** 2
        return math.sqrt(m2) if m2 > 0.0 else 0.0

    @property
    def rapidity(self) -> float:
        """Rapidity along the beam (z) axis."""
        if self.energy <= abs(self.pz):
            return math.copysign(20.0, self.pz)
        return 0.5 * math.log((self.energy + self.pz) / (self.energy - self.pz))

    @property
    def phi(self) -> float:
        """Azimuthal angle in the transverse plane."""
        return math.atan2(self.py, self.px)

    @property
    def theta(self) -> float:
        """Polar angle with respect to the beam axis."""
        momentum = self.momentum
        if momentum == 0.0:
            return 0.0
        return math.acos(max(-1.0, min(1.0, self.pz / momentum)))

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(
            self.energy + other.energy,
            self.px + other.px,
            self.py + other.py,
            self.pz + other.pz,
        )

    @staticmethod
    def from_pt_eta_phi(pt: float, eta: float, phi: float, mass: float = 0.0) -> "FourVector":
        """Build a four vector from collider coordinates."""
        px = pt * math.cos(phi)
        py = pt * math.sin(phi)
        pz = pt * math.sinh(eta)
        energy = math.sqrt(px ** 2 + py ** 2 + pz ** 2 + mass ** 2)
        return FourVector(energy, px, py, pz)


@dataclass(frozen=True)
class Particle:
    """A generated or reconstructed particle."""

    pdg_code: int
    four_vector: FourVector
    charge: int
    status: int = 1

    @property
    def name(self) -> str:
        """Particle name if the code is known, otherwise the raw code."""
        for name, code in PARTICLE_CODES.items():
            if code == self.pdg_code:
                return name
        return str(self.pdg_code)

    @property
    def is_charged(self) -> bool:
        """Return True for particles with non-zero electric charge."""
        return self.charge != 0


@dataclass
class Event:
    """One physics event: a beam configuration plus final state particles."""

    event_number: int
    process: str
    q_squared: float
    bjorken_x: float
    inelasticity: float
    particles: List[Particle] = field(default_factory=list)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.q_squared < 0:
            raise ValidationError("Q^2 must be non-negative")
        if not 0.0 <= self.inelasticity <= 1.0:
            raise ValidationError("inelasticity y must lie in [0, 1]")

    @property
    def scattered_lepton(self) -> Optional[Particle]:
        """The scattered beam lepton, if present in the final state."""
        for particle in self.particles:
            if abs(particle.pdg_code) == 11 and particle.status == 1:
                return particle
        return None

    @property
    def hadronic_final_state(self) -> List[Particle]:
        """All final state particles except the scattered lepton."""
        lepton = self.scattered_lepton
        return [
            particle
            for particle in self.particles
            if particle is not lepton and particle.status == 1
        ]

    @property
    def charged_multiplicity(self) -> int:
        """Number of charged final state particles."""
        return sum(1 for particle in self.particles if particle.is_charged)

    def total_four_vector(self) -> FourVector:
        """Vector sum of all final state particles."""
        total = FourVector(0.0, 0.0, 0.0, 0.0)
        for particle in self.particles:
            total = total + particle.four_vector
        return total

    def transverse_energy(self) -> float:
        """Scalar sum of transverse momenta of the final state."""
        return sum(particle.four_vector.pt for particle in self.particles)


class EventRecord:
    """An in-memory collection of events, the unit passed between chain steps.

    The record keeps simple provenance so that files written by one step of an
    analysis chain can be traced back through the chain, mirroring how the
    sp-system keeps all intermediate files of a validation job.
    """

    def __init__(self, events: Optional[Sequence[Event]] = None,
                 provenance: Optional[List[str]] = None) -> None:
        self._events: List[Event] = list(events or [])
        self.provenance: List[str] = list(provenance or [])

    def append(self, event: Event) -> None:
        """Add an event to the record."""
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        """Add several events to the record."""
        self._events.extend(events)

    def add_provenance(self, step: str) -> None:
        """Record that *step* has processed this record."""
        self.provenance.append(step)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    @property
    def events(self) -> List[Event]:
        """The stored events (shared list, not a copy)."""
        return self._events

    def total_weight(self) -> float:
        """Sum of event weights, used for cross section normalisation."""
        return float(sum(event.weight for event in self._events))

    def select(self, predicate) -> "EventRecord":
        """Return a new record with the events passing *predicate*."""
        selected = EventRecord(
            [event for event in self._events if predicate(event)],
            provenance=list(self.provenance),
        )
        selected.add_provenance("selection")
        return selected

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics used by quick validation comparisons."""
        if not self._events:
            return {
                "n_events": 0.0,
                "mean_q2": 0.0,
                "mean_x": 0.0,
                "mean_multiplicity": 0.0,
                "total_weight": 0.0,
            }
        q2_values = np.array([event.q_squared for event in self._events])
        x_values = np.array([event.bjorken_x for event in self._events])
        multiplicities = np.array(
            [len(event.particles) for event in self._events], dtype=float
        )
        return {
            "n_events": float(len(self._events)),
            "mean_q2": float(q2_values.mean()),
            "mean_x": float(x_values.mean()),
            "mean_multiplicity": float(multiplicities.mean()),
            "total_weight": self.total_weight(),
        }


__all__ = [
    "FourVector",
    "Particle",
    "Event",
    "EventRecord",
    "PARTICLE_CODES",
    "PARTICLE_MASSES",
]
