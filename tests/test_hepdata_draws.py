"""The scalar draws of the generator and the detector simulation match numpy.

``MonteCarloGenerator`` and ``DetectorSimulation`` spell out numpy's own
definitions of their scalar draws on ``Generator.random`` and
``Generator.standard_normal``, which skips numpy's per-call argument
handling.  These properties check that each spelled-out form returns
exactly the bits ``Generator.uniform`` or ``Generator.normal`` returns on a
twin generator, interleaved as the physics interleaves them, and leaves the
bit generator in the same state.  A numpy release that changes one of
those definitions fails here before it moves a physics byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._common import ValidationError
from repro.hepdata.generator import GeneratorSettings, MonteCarloGenerator

SEEDS = st.integers(min_value=0, max_value=2 ** 64 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Bounds numpy accepts: ``a <= b`` with a finite ``b - a``.
BOUNDS = (
    st.tuples(FINITE, FINITE)
    .map(sorted)
    .filter(lambda pair: math.isfinite(pair[1] - pair[0]))
)
NON_NEGATIVE = st.floats(min_value=0.0, max_value=1e300, allow_nan=False)


def _uniform(bounds):
    a, b = bounds
    return (
        f"uniform({a!r}, {b!r})",
        lambda rng: rng.uniform(a, b),
        lambda rng: a + (b - a) * rng.random(),
    )


def _uniform_from_zero(b):
    # The generator's azimuth: uniform(0.0, 2 pi) as 2 pi * random().
    return (
        f"uniform(0.0, {b!r})",
        lambda rng: rng.uniform(0.0, b),
        lambda rng: b * rng.random(),
    )


def _normal(scale):
    return (
        f"normal(0.0, {scale!r})",
        lambda rng: rng.normal(0.0, scale),
        lambda rng: 0.0 + scale * rng.standard_normal(),
    )


#: Each step is (description, numpy's call, the spelled-out form).
STEPS = st.one_of(
    BOUNDS.map(_uniform),
    NON_NEGATIVE.map(_uniform_from_zero),
    NON_NEGATIVE.map(_normal),
    st.just(("uniform()", lambda rng: rng.uniform(), lambda rng: rng.random())),
    st.just((
        "uniform(0.0, 1.0)",
        lambda rng: rng.uniform(0.0, 1.0),
        lambda rng: rng.random(),
    )),
)


def _bits(value):
    return float(value).hex()


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, steps=st.lists(STEPS, min_size=1, max_size=24))
def test_spelled_out_draws_match_numpy_bit_for_bit(seed, steps):
    reference = np.random.default_rng(seed)
    rewritten = np.random.default_rng(seed)
    for description, numpy_draw, spelled_out in steps:
        expected = numpy_draw(reference)
        actual = spelled_out(rewritten)
        assert isinstance(actual, float), description
        assert _bits(actual) == _bits(expected), description
    assert rewritten.bit_generator.state == reference.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_the_physics_constants_match_over_a_long_stream(seed):
    """The exact forms hepdata uses, over a few thousand interleaved draws."""
    reference = np.random.default_rng(seed)
    rewritten = np.random.default_rng(seed)
    two_pi = 2.0 * math.pi
    for _ in range(500):
        assert _bits(2.0 * math.pi * rewritten.random()) == _bits(
            reference.uniform(0.0, two_pi)
        )
        assert _bits(0.0 + 0.15 * rewritten.standard_normal()) == _bits(
            reference.normal(0.0, 0.15)
        )
        assert _bits(0.7 + (1.3 - 0.7) * rewritten.random()) == _bits(
            reference.uniform(0.7, 1.3)
        )
        assert _bits(rewritten.random()) == _bits(reference.uniform())
    assert rewritten.bit_generator.state == reference.bit_generator.state


def test_a_q2_draw_past_the_y_limit_is_rejected():
    """numpy's uniform(y_min, 0.95) raised once a drawn Q^2 / s passed 0.95;
    the spelled-out form would not, so generate() raises there itself."""
    generator = MonteCarloGenerator(GeneratorSettings(q2_min=99000.0, q2_max=100000.0))
    with pytest.raises(ValidationError):
        generator.generate(1)
