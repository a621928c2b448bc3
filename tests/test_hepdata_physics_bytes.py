"""Pins of the physics bytes: the exact numbers the toy analysis chain produces.

Byte-identical science is the invariant every validation comparison rests
on, so a change meant to make the physics cheaper must leave every number
exactly as it was.  These pins were recorded from the chain before any
such optimisation; a diff here means the physics changed, not merely got
faster or slower.

Each product of a full chain (generated events, detector-level particles,
reconstructed kinematics and jets, DST and micro-DST, histograms and the
cross-section points) is reduced to the sha256 of its canonical JSON, with
every float written as ``float.hex`` so no rounding hides a changed bit.
The chain runs under the reference context, under a benign recompilation
context and under a context carrying every named defect plus one unknown
one, which exercises the defect model and the array perturbation path.
"""

import hashlib
import json

import numpy as np
import pytest

from repro._common import stable_digest, stable_fraction, stable_hash
from repro.hepdata.analysis import PhysicsAnalysis, SelectionCuts
from repro.hepdata.dst import DSTProducer, MicroDSTProducer
from repro.hepdata.generator import MonteCarloGenerator, default_processes
from repro.hepdata.numerics import REFERENCE_CONTEXT, context_for_environment
from repro.hepdata.reconstruction import EventReconstruction
from repro.hepdata.simulation import DetectorSimulation, detector_for_experiment


N_EVENTS = 120
SEED = 20131029

#: Every defect the numeric model names, plus one it does not know.
ALL_DEFECTS = {
    "32bit-index-overflow": 0.05,
    "uninitialised-memory": 0.2,
    "removed-interface-returns-zero": 0.1,
    "libm-precision-change": 0.01,
    "experiment-specific-bug": 0.3,
}

CONTEXTS = {
    "reference": REFERENCE_CONTEXT,
    "benign": context_for_environment(
        label="SL6_64bit_gcc4.4",
        word_size=64,
        compiler_strictness=2,
        libm_generation=3,
    ),
    "defects": context_for_environment(
        label="SL7_64bit_gcc4.8",
        word_size=64,
        compiler_strictness=3,
        libm_generation=4,
        defects=ALL_DEFECTS,
    ),
}


def _canonical(value):
    """Plain JSON data with every float spelled exactly."""
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def _sha256(value) -> str:
    text = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _vector(vector):
    return [vector.energy, vector.px, vector.py, vector.pz]


def _events(record):
    return [
        {
            "event_number": event.event_number,
            "process": event.process,
            "q_squared": event.q_squared,
            "bjorken_x": event.bjorken_x,
            "inelasticity": event.inelasticity,
            "weight": event.weight,
            "particles": [
                [particle.pdg_code, particle.charge, particle.status,
                 _vector(particle.four_vector)]
                for particle in event.particles
            ],
        }
        for event in record
    ]


def _reconstructed(events):
    return [
        {
            "event_number": event.event_number,
            "kinematics": [
                event.kinematics.q_squared_electron,
                event.kinematics.bjorken_x_electron,
                event.kinematics.inelasticity_electron,
                event.kinematics.q_squared_jb,
                event.kinematics.inelasticity_jb,
                event.kinematics.has_scattered_lepton,
            ],
            "jets": [[_vector(jet.four_vector), jet.n_constituents] for jet in event.jets],
            "charged_multiplicity": event.charged_multiplicity,
            "transverse_energy": event.transverse_energy,
            "weight": event.weight,
        }
        for event in events
    ]


def chain_products(context):
    """Run one full nc_dis chain under *context* and return its products."""
    settings = default_processes()[0]
    generated = MonteCarloGenerator(settings, context).generate(N_EVENTS, seed=SEED)
    simulated = DetectorSimulation(detector_for_experiment("H1"), context).simulate(
        generated, seed=SEED + 1
    )
    reconstructed = EventReconstruction(context).reconstruct(simulated)
    # At the chain's 4 GeV threshold few events keep a jet; a low threshold
    # pins the membership of every cone the clustering builds.
    low_threshold = EventReconstruction(context, jet_min_pt=0.5).reconstruct(simulated)
    dst = DSTProducer(production_tag="H1-nc_dis").produce(reconstructed)
    micro = MicroDSTProducer().produce(dst)
    result = PhysicsAnalysis(
        process=settings.process,
        cuts=SelectionCuts(min_q2=settings.q2_min * 1.2, max_q2=settings.q2_max),
        numeric_context=context,
    ).run(micro)
    return {
        "events": _events(generated),
        "detector_particles": _events(simulated),
        "reconstruction": _reconstructed(reconstructed),
        "soft_jets": [
            [[_vector(jet.four_vector), jet.n_constituents] for jet in event.jets]
            for event in low_threshold
        ],
        "dst": {"file": dst.to_dict(), "summary": dst.summary()},
        "microdst": micro.to_dict(),
        "histograms": result.histograms.to_dict(),
        "cross_section": [
            [point.q2_low, point.q2_high, point.n_events,
             point.cross_section_pb, point.statistical_error_pb]
            for point in result.cross_section
        ],
        "analysis_summary": result.summary,
    }


#: sha256 of each product's canonical JSON, recorded before the physics
#: layer's overhead was optimised.
PINNED_DIGESTS = {
    "reference": {
        "events": "3fdde92055a52037c9f3c3c859d7c9e7dbf3c736f78e2387f201f15114610b1a",
        "detector_particles": "f9773f2ec4895307ef9005085ee245b81fcc297fc73a599a0aa5dd613945bb4e",
        "reconstruction": "a102b51573e38ff4e297cb358f51818dc33e04a2f46e74dd4757c1d5f5f27bc2",
        "soft_jets": "c8b28a8311fc3378f6127e25e0df9e58d4c3dbe077d02c3d100f2b57492a5b05",
        "dst": "d1b308f08fa4fa8b67787a6dfe63cb28e1404ff5a113dd85c995a5a3dafec98d",
        "microdst": "df0dde1c951a8e1899e8bdf3a4b940f34c2e37c7c3433c0baf1b493765f0d0a7",
        "histograms": "6f4878c8577cf3381c576f4ee0389eb3b81b6dc0c4c7401a53f22c3747b7f1fe",
        "cross_section": "c161aedab51923cc86210a034e0a1b6e47a2cab78e37ebe7a2f29f5d4eb3ce32",
        "analysis_summary": "d978f22f92c0e14ec0273c729b75666445d0fa3376d14ae11527717ab0e9ad2b",
    },
    "benign": {
        "events": "12152e5c129475a4dd6c127825c7ac94db5fa299cfe88789e97990e50a46ee49",
        "detector_particles": "198326b78a790625cb01c19c4c0736ba8b9e34dbf67e605d1cb7250c9c78a70b",
        "reconstruction": "a5e718b0759594394e9a561152fe346516d71f777d1d9e0ce6c7d33b5dd0bd70",
        "soft_jets": "261f5d93be07572f7cabda7612838e7dbe435564854a18d55c1534ac6397165a",
        "dst": "0e32ad9f470a52049ae18b4d3255385bae4cc3aa1c33e12a8b7784e912ddc141",
        "microdst": "a65729dbe480552aa3693942e806a2473978cb3be1d9a7ebe4cf58f04797bb1f",
        # Rounding at 6e-12 moves no entry across a bin edge.
        "histograms": "6f4878c8577cf3381c576f4ee0389eb3b81b6dc0c4c7401a53f22c3747b7f1fe",
        "cross_section": "95918bc3d73dbcf0d3a8efc01acc505cfa813c66e833295e1b3641b51e96c4b6",
        "analysis_summary": "8d1463d6567e85b6994ac21c6edc63e384b9584b275b508c48f526357a163c22",
    },
    "defects": {
        "events": "40b81a52922d17d3629e387f545911cf41ebafd5eed02a5d7bc019dd5254e61a",
        "detector_particles": "74ff217e908881be2f45627337e34100b18e8a8949937e9f6b4e15c54eb003d8",
        "reconstruction": "b49e733f82b5831462187b81cf2ed352c0d54d5af8c00f06816a389c23241b64",
        "soft_jets": "4da07f98d8e03b2534c6f49a57f8a8acf1d9fbe8baaed07999c9e3482a5dbb9a",
        "dst": "4773a0f817ddc33cab2a7777b644d0a6f12c566ef89305452befe25b75dedec2",
        "microdst": "0fbee2a294d8a9d80a7e1ba6a3e6020e14a7963105584a42c13263857c145541",
        "histograms": "f2f46ec9ef5e5d5745f8f0e5e94b5d905d07da96a1ad64feb9e1fd904785f998",
        "cross_section": "a83c069e383e867d6ddc10a1693fae5f161a7739383a4dcd62bef7548092503b",
        "analysis_summary": "0808e698c95deabf0238f5e72459b00504b6cedaf431166f4cb07dad62882460",
    },
}


@pytest.fixture(scope="module", params=sorted(CONTEXTS))
def products(request):
    return request.param, chain_products(CONTEXTS[request.param])


class TestChainBytes:
    @pytest.mark.parametrize("product", [
        "events", "detector_particles", "reconstruction", "soft_jets", "dst", "microdst",
        "histograms", "cross_section", "analysis_summary",
    ])
    def test_product_bytes_are_pinned(self, products, product):
        name, outputs = products
        assert _sha256(outputs[product]) == PINNED_DIGESTS[name][product]

    def test_the_contexts_give_different_physics(self, products):
        """Each context moves the numbers, so each pin guards its own path."""
        name, outputs = products
        for other in CONTEXTS:
            if other != name:
                assert PINNED_DIGESTS[other]["events"] != _sha256(
                    outputs["events"]
                )


class TestStableHashBytes:
    @pytest.mark.parametrize("parts, expected", [
        (("a", 1), 9484037261928657086),
        ((1,), 7748076420210162913),
        ((1.0,), 15059854036765921999),
        ((True,), 4376522228412396763),
        (("label", 0, "tag", 3), 3416956453774463075),
        ((), 16406829232824261652),
        (("x",), 3274422879871479876),
    ])
    def test_stable_hash(self, parts, expected):
        assert stable_hash(*parts) == expected

    @pytest.mark.parametrize("parts, expected", [
        ((1,), "0x1.ae1ac9cffcd3fp-2"),
        ((1.0,), "0x1.a1feb2e96d54ap-1"),
        ((True,), "0x1.e5e43e3b40f9ap-3"),
        (("SL6_64bit_gcc4.4", 3, "q2:7"), "0x1.6fd792416df31p-1"),
        (("SL6_64bit_gcc4.4", 3, "hist:q2", 0), "0x1.8ae70dfa8fd56p-1"),
        (("removed-api", "smear:3:1"), "0x1.cb84e9e79aa9dp-8"),
    ])
    def test_stable_fraction(self, parts, expected):
        assert stable_fraction(*parts).hex() == expected

    def test_one_one_point_oh_and_true_hash_differently(self):
        values = {stable_fraction(part) for part in (1, 1.0, True)}
        assert len(values) == 3

    def test_stable_digest(self):
        assert stable_digest("label", 3, "tag") == "5b342ce7bab65477d66e1080e57a619fa1bdf6cd"
