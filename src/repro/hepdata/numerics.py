"""Numeric context: how the computing environment perturbs physics results.

The whole point of the sp-system is that rebuilding the same experiment
software in a new environment can change its results — through word size,
compiler code generation, math library versions or genuine bugs exposed by
the migration.  The :class:`NumericContext` captures those effects for the
synthetic analysis chains: it is derived deterministically from an
environment configuration, and every hepdata algorithm routes its floating
point results through it.

Two regimes are modelled:

* benign, tiny rounding differences (different but statistically compatible
  results — validation should pass); and
* genuine defects (a 32-bit overflow, a removed interface silently returning
  zero) that shift results far outside statistical tolerance — validation
  should fail and the diagnosis should point at the responsible input.

The benign rounding offset is a pure function of ``(label,
libm_generation, tag)`` (plus the element index for arrays), and the same
keys recur many times: every experiment validated on a configuration
shares its label, and each simulation step numbers its events from zero.
So the offsets are memoised in a module-level ``functools.lru_cache``
keyed on exactly those arguments, bounded at :data:`OFFSET_MEMO_SIZE`
(8,192) entries.  The memo is typed, because ``1``, ``1.0`` and ``True``
are equal keys to an untyped cache but hash to different offsets.  It
lives outside the frozen :class:`NumericContext`, which stays a picklable
value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro._common import stable_fraction


#: Bound of the rounding-offset memo.  One 15-cell campaign at scale 0.12
#: computes about 21,000 offsets over about 3,200 distinct keys, so the
#: bound holds a night's keys with room to spare; full, it holds about 2 MB.
OFFSET_MEMO_SIZE = 8192


@functools.lru_cache(maxsize=OFFSET_MEMO_SIZE, typed=True)
def _rounding_offset(*parts: object) -> float:
    """The benign rounding offset in ``[-0.5, 0.5)`` for *parts*.

    *parts* is ``(label, libm_generation, tag)`` for a scalar and
    ``(label, libm_generation, tag, index)`` for an array element.
    """
    return stable_fraction(*parts) - 0.5


@dataclass(frozen=True)
class NumericContext:
    """Deterministic description of environment-induced numeric behaviour.

    Attributes
    ----------
    label:
        Label of the environment the context was derived from.
    rounding_scale:
        Relative magnitude of benign rounding differences (for example
        ``1e-12`` for a recompilation with a different optimiser).
    libm_generation:
        Integer identifying the math library generation; different
        generations give slightly different transcendental functions.
    defects:
        Named defects active in this environment
        (``{"32bit-index-overflow": 0.05}`` meaning a 5% relative distortion).
    """

    label: str = "reference"
    rounding_scale: float = 0.0
    libm_generation: int = 0
    defects: Tuple[Tuple[str, float], ...] = ()

    def defect_map(self) -> Dict[str, float]:
        """Return the active defects as a dictionary."""
        return dict(self.defects)

    def has_defect(self, name: str) -> bool:
        """Return True if the named defect is active."""
        return name in self.defect_map()

    def perturb_scalar(self, value: float, tag: str) -> float:
        """Apply the context's rounding model to a single scalar.

        The perturbation is deterministic in ``(label, tag, value)`` so the
        same analysis run twice in the same environment gives bit-identical
        results — which is what makes run-against-run comparison meaningful.
        """
        if self.rounding_scale == 0.0 and self.libm_generation == 0:
            result = value
        else:
            offset = _rounding_offset(self.label, self.libm_generation, tag)
            result = value * (1.0 + 2.0 * offset * self.rounding_scale)
        for name, magnitude in self.defects:
            result = _apply_defect(result, name, magnitude, tag)
        return result

    def perturb_array(self, values: np.ndarray, tag: str) -> np.ndarray:
        """Apply the rounding model element-wise to *values*."""
        values = np.asarray(values, dtype=float)
        if self.rounding_scale != 0.0 or self.libm_generation != 0:
            offsets = np.array(
                [
                    _rounding_offset(self.label, self.libm_generation, tag, index)
                    for index in range(values.size)
                ]
            ).reshape(values.shape)
            values = values * (1.0 + 2.0 * offsets * self.rounding_scale)
        for name, magnitude in self.defects:
            values = np.array(
                [
                    _apply_defect(value, name, magnitude, f"{tag}:{index}")
                    for index, value in enumerate(values.ravel().tolist())
                ]
            ).reshape(values.shape)
        return values


def _apply_defect(value: float, name: str, magnitude: float, tag: str) -> float:
    """Apply one named defect to a scalar value."""
    if name == "32bit-index-overflow":
        # Large intermediate sums overflow a 32-bit index and drop entries.
        return value * (1.0 - magnitude)
    if name == "uninitialised-memory":
        # Pseudo-random garbage proportional to the magnitude.
        jitter = stable_fraction("uninitialised", tag) - 0.5
        return value * (1.0 + 2.0 * jitter * magnitude)
    if name == "removed-interface-returns-zero":
        # A removed external interface silently yields zero a fraction of calls.
        if stable_fraction("removed-api", tag) < magnitude:
            return 0.0
        return value
    if name == "libm-precision-change":
        jitter = stable_fraction("libm", tag) - 0.5
        return value * (1.0 + 2.0 * jitter * magnitude)
    # Unknown defects degrade results proportionally; keeping behaviour
    # defined means experiment-injected custom defects still work.
    return value * (1.0 + magnitude * (stable_fraction(name, tag) - 0.5))


#: The reference context: the environment the software was last known good on.
REFERENCE_CONTEXT = NumericContext()


def context_for_environment(
    label: str,
    word_size: int,
    compiler_strictness: int,
    libm_generation: int,
    defects: Optional[Dict[str, float]] = None,
) -> NumericContext:
    """Derive a :class:`NumericContext` from environment characteristics.

    Recompiling on a newer compiler or a different word size produces benign
    rounding differences whose size grows slightly with the "distance" from
    the original build environment; genuine defects are passed explicitly by
    the caller (typically the experiment definitions or a fault-injection
    benchmark).
    """
    rounding = 1e-12 * (1 + compiler_strictness) * (2 if word_size == 64 else 1)
    return NumericContext(
        label=label,
        rounding_scale=rounding,
        libm_generation=libm_generation,
        defects=tuple(sorted((defects or {}).items())),
    )


__all__ = [
    "NumericContext",
    "REFERENCE_CONTEXT",
    "context_for_environment",
]
