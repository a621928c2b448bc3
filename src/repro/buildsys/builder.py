"""Simulated compilation of experiment packages on an environment.

The sp-system performs "a regular build of the experimental software ...
according to the current prescription of the working environment".  The
:class:`PackageBuilder` reproduces that step: it checks each package's
requirements against the target environment, produces a
:class:`BuildResult` with compiler-style diagnostics, and stores the
resulting "binaries ... as tar-balls on the common storage".  Packages whose
dependencies failed are marked as skipped, exactly as a real recursive make
would leave them unbuilt.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._common import BuildError, stable_digest, stable_fraction, stable_hash
from repro.buildsys.graph import DependencyGraph
from repro.buildsys.package import PackageInventory, SoftwarePackage
from repro.buildsys.tarball import Tarball
from repro.environment.compatibility import (
    CompatibilityChecker,
    CompatibilityIssue,
    IssueCategory,
    IssueSeverity,
)
from repro.environment.configuration import EnvironmentConfiguration


class BuildStatus(enum.Enum):
    """Outcome of building one package."""

    SUCCESS = "success"
    WARNINGS = "warnings"
    FAILED = "failed"
    SKIPPED = "skipped"

    def is_usable(self) -> bool:
        """A usable build produced an artifact (success or just warnings)."""
        return self in (BuildStatus.SUCCESS, BuildStatus.WARNINGS)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One compiler-style diagnostic message."""

    severity: str
    source: str
    message: str

    def __str__(self) -> str:
        return f"{self.source}: {self.severity}: {self.message}"

    def to_dict(self) -> Dict[str, str]:
        """Serialise for the common storage."""
        return {
            "severity": self.severity,
            "source": self.source,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "Diagnostic":
        """Reconstruct a diagnostic serialised by :meth:`to_dict`."""
        return cls(
            severity=str(payload["severity"]),
            source=str(payload["source"]),
            message=str(payload["message"]),
        )


@dataclass
class BuildResult:
    """Result of building one package on one environment configuration."""

    package: SoftwarePackage
    configuration_key: str
    status: BuildStatus
    diagnostics: List[Diagnostic] = field(default_factory=list)
    issues: List[CompatibilityIssue] = field(default_factory=list)
    tarball: Optional[Tarball] = None
    build_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        """True when the build produced a usable artifact."""
        return self.status.is_usable()

    @property
    def n_warnings(self) -> int:
        """Number of warning diagnostics."""
        return sum(1 for diagnostic in self.diagnostics if diagnostic.severity == "warning")

    @property
    def n_errors(self) -> int:
        """Number of error diagnostics."""
        return sum(1 for diagnostic in self.diagnostics if diagnostic.severity == "error")

    def failure_categories(self) -> List[IssueCategory]:
        """Categories of the error issues (used by the diagnosis engine)."""
        return [issue.category for issue in self.issues if issue.is_error()]

    def summary_line(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.package.name} [{self.configuration_key}] -> {self.status.value} "
            f"({self.n_errors} errors, {self.n_warnings} warnings)"
        )

    def to_dict(self) -> Dict[str, object]:
        """Serialise the complete result for the common storage.

        Unlike the run documents (which keep only summary lines), this is a
        full round-trip: the persisted build cache replays restored results
        and those replays must stay bit-identical to fresh builds.
        """
        return {
            "package": self.package.to_dict(),
            "configuration_key": self.configuration_key,
            "status": self.status.value,
            "diagnostics": [diagnostic.to_dict() for diagnostic in self.diagnostics],
            "issues": [issue.to_dict() for issue in self.issues],
            "tarball": self.tarball.to_dict() if self.tarball is not None else None,
            "build_seconds": self.build_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BuildResult":
        """Reconstruct a result serialised by :meth:`to_dict`."""
        tarball_payload = payload.get("tarball")
        return cls(
            package=SoftwarePackage.from_dict(payload["package"]),  # type: ignore[arg-type]
            configuration_key=str(payload["configuration_key"]),
            status=BuildStatus(str(payload["status"])),
            diagnostics=[
                Diagnostic.from_dict(diagnostic)
                for diagnostic in payload.get("diagnostics", [])  # type: ignore[union-attr]
            ],
            issues=[
                CompatibilityIssue.from_dict(issue)
                for issue in payload.get("issues", [])  # type: ignore[union-attr]
            ],
            tarball=(
                Tarball.from_dict(tarball_payload)  # type: ignore[arg-type]
                if tarball_payload is not None
                else None
            ),
            build_seconds=float(payload.get("build_seconds", 0.0)),  # type: ignore[arg-type]
        )


@dataclass
class BuildCampaign:
    """The result of building a whole inventory on one configuration."""

    experiment: str
    configuration_key: str
    results: Dict[str, BuildResult] = field(default_factory=dict)

    def add(self, result: BuildResult) -> None:
        """Record a package build result."""
        self.results[result.package.name] = result

    def result_for(self, package_name: str) -> BuildResult:
        """Return the result for *package_name*."""
        try:
            return self.results[package_name]
        except KeyError:
            raise BuildError(f"no build result for package {package_name!r}") from None

    def __len__(self) -> int:
        return len(self.results)

    @property
    def n_success(self) -> int:
        return sum(1 for result in self.results.values() if result.status is BuildStatus.SUCCESS)

    @property
    def n_warnings(self) -> int:
        return sum(1 for result in self.results.values() if result.status is BuildStatus.WARNINGS)

    @property
    def n_failed(self) -> int:
        return sum(1 for result in self.results.values() if result.status is BuildStatus.FAILED)

    @property
    def n_skipped(self) -> int:
        return sum(1 for result in self.results.values() if result.status is BuildStatus.SKIPPED)

    @property
    def all_usable(self) -> bool:
        """True when every package produced a usable artifact."""
        return all(result.succeeded for result in self.results.values())

    def failed_packages(self) -> List[str]:
        """Names of packages that failed to build (not merely skipped)."""
        return sorted(
            name for name, result in self.results.items()
            if result.status is BuildStatus.FAILED
        )

    def skipped_packages(self) -> List[str]:
        """Names of packages skipped because a dependency failed."""
        return sorted(
            name for name, result in self.results.items()
            if result.status is BuildStatus.SKIPPED
        )

    def usable_fraction(self) -> float:
        """Fraction of packages with a usable artifact."""
        if not self.results:
            return 0.0
        usable = sum(1 for result in self.results.values() if result.succeeded)
        return usable / len(self.results)

    def total_build_seconds(self) -> float:
        """Accumulated simulated build time."""
        return sum(result.build_seconds for result in self.results.values())


class PackageBuilder:
    """Builds package inventories against environment configurations."""

    def __init__(self, checker: Optional[CompatibilityChecker] = None) -> None:
        self.checker = checker or CompatibilityChecker()

    def build_package(
        self,
        package: SoftwarePackage,
        configuration: EnvironmentConfiguration,
    ) -> BuildResult:
        """Build a single package, ignoring dependency state."""
        issues = self.checker.check(package.requirements, configuration)
        errors = [issue for issue in issues if issue.is_error()]
        diagnostics = [
            Diagnostic(
                severity="error" if issue.is_error() else "warning",
                source=f"{package.name}/{issue.component}",
                message=issue.message,
            )
            for issue in issues
        ]
        diagnostics.extend(self._fragility_warnings(package, configuration))
        build_seconds = package.estimated_build_seconds()
        if errors:
            return BuildResult(
                package=package,
                configuration_key=configuration.key,
                status=BuildStatus.FAILED,
                diagnostics=diagnostics,
                issues=issues,
                tarball=None,
                build_seconds=build_seconds * 0.3,
            )
        status = BuildStatus.WARNINGS if any(
            diagnostic.severity == "warning" for diagnostic in diagnostics
        ) else BuildStatus.SUCCESS
        tarball = Tarball.for_build(package, configuration)
        return BuildResult(
            package=package,
            configuration_key=configuration.key,
            status=status,
            diagnostics=diagnostics,
            issues=issues,
            tarball=tarball,
            build_seconds=build_seconds,
        )

    def build_inventory(
        self,
        inventory: PackageInventory,
        configuration: EnvironmentConfiguration,
        stop_on_failure: bool = False,
    ) -> BuildCampaign:
        """Build every package of *inventory* in dependency order.

        Packages whose (transitive) dependencies failed are marked
        ``SKIPPED``.  With *stop_on_failure* the campaign stops at the first
        failed package, which is how a nightly build would behave with
        ``make -k`` disabled.
        """
        graph = DependencyGraph(inventory)
        campaign = BuildCampaign(
            experiment=inventory.experiment, configuration_key=configuration.key
        )
        unusable: set = set()
        stopped = False
        for name in graph.build_order():
            package = inventory.get(name)
            if stopped:
                campaign.add(self._skipped_result(package, configuration, "campaign stopped"))
                continue
            failed_dependencies = [
                dependency for dependency in package.dependencies if dependency in unusable
            ]
            if failed_dependencies:
                campaign.add(
                    self._skipped_result(
                        package,
                        configuration,
                        "dependency failed: " + ", ".join(sorted(failed_dependencies)),
                    )
                )
                unusable.add(name)
                continue
            result = self.build_package(package, configuration)
            campaign.add(result)
            if not result.succeeded:
                unusable.add(name)
                if stop_on_failure:
                    stopped = True
        return campaign

    def _skipped_result(
        self,
        package: SoftwarePackage,
        configuration: EnvironmentConfiguration,
        reason: str,
    ) -> BuildResult:
        return BuildResult(
            package=package,
            configuration_key=configuration.key,
            status=BuildStatus.SKIPPED,
            diagnostics=[Diagnostic("note", package.name, f"skipped: {reason}")],
            issues=[],
            tarball=None,
            build_seconds=0.0,
        )

    def _fragility_warnings(
        self,
        package: SoftwarePackage,
        configuration: EnvironmentConfiguration,
    ) -> List[Diagnostic]:
        """Deterministic warning noise from fragile legacy code.

        The number of warnings grows with compiler strictness and package
        fragility; it is derived from a stable hash so that the same package
        on the same environment always produces the same diagnostics, which
        lets run-to-run comparisons stay meaningful.
        """
        strictness = configuration.compiler.strictness
        expected = package.fragility * strictness * 3.0
        count = int(expected) + (
            1 if stable_fraction(package.key, configuration.key, "warnings")
            < (expected - int(expected)) else 0
        )
        warnings = []
        for index in range(count):
            kind = _WARNING_KINDS[
                stable_hash(package.key, configuration.key, index) % len(_WARNING_KINDS)
            ]
            warnings.append(
                Diagnostic(
                    severity="warning",
                    source=f"{package.name}/src_{index:02d}.{_suffix(package)}",
                    message=kind,
                )
            )
        return warnings


def build_result_digest(result: BuildResult) -> str:
    """Canonical content hash of one build result's full document.

    Builds are pure functions of the package's content identity and the
    target configuration, so re-executing a build must reproduce this digest
    exactly; :class:`BuildTask` uses it to pin that determinism contract.
    """
    return stable_digest(json.dumps(result.to_dict(), sort_keys=True))


# No execution backend runs build tasks; kept because perfbench/layers.py imports it.
@dataclass
class BuildTask:
    """One re-executable, picklable package build.

    A task carries everything :meth:`PackageBuilder.build_package` needs;
    that method is a pure function of (package content, configuration), so
    a task re-executed anywhere reproduces the same result.  With
    *expected_digest* set, :meth:`run` verifies the re-executed build
    reproduced it bit-identically and raises
    :class:`~repro._common.BuildError` otherwise.  ``runs`` counts how often
    the task was executed.
    """

    package: SoftwarePackage
    configuration: EnvironmentConfiguration
    builder: PackageBuilder
    expected_digest: Optional[str] = None
    runs: int = 0

    def run(self) -> BuildResult:
        """Execute the build (for real) and return its result."""
        result = self.builder.build_package(self.package, self.configuration)
        self.runs += 1
        if self.expected_digest is not None:
            digest = build_result_digest(result)
            if digest != self.expected_digest:
                raise BuildError(
                    f"re-executed build of {self.package.key} on "
                    f"{self.configuration.key} diverged from the recorded "
                    f"result ({digest} != {self.expected_digest})"
                )
        return result

    def __call__(self) -> BuildResult:
        return self.run()


_WARNING_KINDS = (
    "implicit conversion loses integer precision",
    "variable may be used uninitialised",
    "obsolescent feature: computed GO TO",
    "deprecated conversion from string constant to 'char*'",
    "comparison between signed and unsigned integer expressions",
    "type punning breaks strict aliasing rules",
)


def _suffix(package: SoftwarePackage) -> str:
    from repro.buildsys.package import Language

    return {
        Language.FORTRAN: "F",
        Language.CPP: "cc",
        Language.C: "c",
        Language.PYTHON: "py",
    }[package.language]


__all__ = [
    "BuildStatus",
    "Diagnostic",
    "BuildResult",
    "BuildCampaign",
    "PackageBuilder",
    "BuildTask",
    "build_result_digest",
]
