"""Shared fixtures for the repro test suite.

The fixtures provide small, fast instances of the main building blocks: the
standard environment configurations, tiny experiment definitions (scaled-down
H1/ZEUS/HERMES) and a ready-to-use sp-system.  Everything is deterministic,
so the tests never need to seed anything themselves.
"""

from __future__ import annotations

import os

import pytest

from repro.core.spsystem import SPSystem
from repro.environment.configuration import (
    EnvironmentFactory,
    next_generation_configuration,
    sp_system_configurations,
)
from repro.experiments.h1 import build_h1_experiment
from repro.experiments.hermes import build_hermes_experiment
from repro.experiments.inventories import InventoryQuirks, build_inventory
from repro.experiments.zeus import build_zeus_experiment


@pytest.fixture(scope="session")
def environment_factory():
    """A shared factory over the default catalogues."""
    return EnvironmentFactory()


@pytest.fixture(scope="session")
def standard_configurations():
    """The five standard sp-system configurations."""
    return sp_system_configurations()


@pytest.fixture(scope="session")
def sl5_64_gcc44(standard_configurations):
    """The SL5/64bit gcc4.4 configuration (the 'established' platform)."""
    return next(
        configuration for configuration in standard_configurations
        if configuration.key == "SL5_64bit_gcc4.4"
    )


@pytest.fixture(scope="session")
def sl6_64_gcc44(standard_configurations):
    """The SL6/64bit gcc4.4 configuration (the migration target)."""
    return next(
        configuration for configuration in standard_configurations
        if configuration.key == "SL6_64bit_gcc4.4"
    )


@pytest.fixture(scope="session")
def sl7_root6():
    """The SL7 + ROOT 6 'next challenge' configuration."""
    return next_generation_configuration()


@pytest.fixture(scope="session")
def tiny_h1():
    """A small but structurally complete H1 definition (fast to run)."""
    return build_h1_experiment(scale=0.15)


@pytest.fixture(scope="session")
def tiny_zeus():
    """A small ZEUS definition."""
    return build_zeus_experiment(scale=0.2)


@pytest.fixture(scope="session")
def tiny_hermes():
    """A small HERMES definition."""
    return build_hermes_experiment(scale=0.3)


@pytest.fixture(scope="session")
def small_inventory():
    """A 20-package inventory without any migration quirks."""
    return build_inventory(
        "TESTEXP",
        20,
        quirks=InventoryQuirks(
            n_not_ported_to_newest_abi=0,
            n_legacy_root_api=0,
            n_strictness_limited=0,
            n_32bit_only=0,
        ),
    )


@pytest.fixture()
def sp_system():
    """A freshly provisioned sp-system with the five standard images."""
    system = SPSystem()
    system.provision_standard_images()
    return system


def _file_states(directory, backdate=False):
    """Relative path -> (mtime_ns, inode, bytes) of every file below
    *directory*.  With *backdate*, every file's mtime is first set long in
    the past (September 2001), so any later write shows in ``st_mtime_ns``
    however coarse the file system's clock is."""
    states = {}
    for root, _subdirectories, filenames in os.walk(directory):
        for filename in filenames:
            path = os.path.join(root, filename)
            if backdate:
                os.utime(path, ns=(10**18, 10**18))
            info = os.stat(path)
            with open(path, "rb") as handle:
                states[os.path.relpath(path, directory)] = (
                    info.st_mtime_ns, info.st_ino, handle.read(),
                )
    return states


@pytest.fixture()
def file_states():
    """:func:`_file_states`, to see which files a persist wrote."""
    return _file_states


@pytest.fixture()
def puts(monkeypatch):
    """``namespace/key`` of every ``StorageNamespace.put`` from here on."""
    from repro.storage.common_storage import StorageNamespace

    recorded = []
    put = StorageNamespace.put

    def recording_put(self, key, document, overwrite=True):
        recorded.append(f"{self.name}/{key}")
        put(self, key, document, overwrite=overwrite)

    monkeypatch.setattr(StorageNamespace, "put", recording_put)
    return recorded


@pytest.fixture()
def journal_status_calls(monkeypatch):
    """The storage of every ``BuildCache.journal_status`` call from here on."""
    from repro.scheduler.cache import BuildCache

    recorded = []
    journal_status = BuildCache.journal_status.__func__

    def recording_journal_status(cls, storage):
        recorded.append(storage)
        return journal_status(cls, storage)

    monkeypatch.setattr(
        BuildCache, "journal_status", classmethod(recording_journal_status)
    )
    return recorded
