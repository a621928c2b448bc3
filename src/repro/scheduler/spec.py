"""Request objects for the execution API.

A validation campaign is described by data: a frozen :class:`CampaignSpec`
names everything a campaign needs (the matrix, the pool, the policy, the
execution backend and the cache options), and
:meth:`SPSystem.submit <repro.core.spsystem.SPSystem.submit>` is the one way
to run it.  The spec round-trips losslessly through
:meth:`CampaignSpec.to_dict` / :meth:`CampaignSpec.from_dict`, and therefore
persists into the common sp-system storage — a spec loaded back from a
previous installation replays the byte-identical campaign.

Two shapes of matrix are supported.  The common one is the cross product:
*experiments* x *configuration_keys* (either side ``None`` meaning "all
registered"), repeated *rounds* times.  The explicit one is a tuple of
:class:`ValidationRequest` cells — used by the regular-operation service,
whose cron schedule produces heterogeneous (experiment, configuration,
description) triples that no cross product can express.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro._common import SchedulingError
from repro.scheduler.pool import SCHEDULING_POLICIES, WorkerFailure

#: Default number of standalone tests grouped into one worker-slot batch.
#: (Lives here so the spec layer does not depend on the scheduler module.)
DEFAULT_BATCH_SIZE = 4

#: Valid values of :attr:`CampaignSpec.on_deadline`.
ON_DEADLINE_MODES = ("report", "abort")


@dataclass(frozen=True)
class ValidationRequest:
    """One requested validation cell: an experiment on a configuration."""

    experiment: str
    configuration_key: str
    description: Optional[str] = None
    reference_configuration_key: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view; :meth:`from_dict` round-trips it."""
        return {
            "experiment": self.experiment,
            "configuration_key": self.configuration_key,
            "description": self.description,
            "reference_configuration_key": self.reference_configuration_key,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ValidationRequest":
        """Reconstruct a request serialised by :meth:`to_dict`."""
        try:
            experiment = str(payload["experiment"])
            configuration_key = str(payload["configuration_key"])
        except (KeyError, TypeError) as error:
            raise SchedulingError(
                f"a validation request needs an experiment and a "
                f"configuration key (got {payload!r})"
            ) from error
        description = payload.get("description")
        reference = payload.get("reference_configuration_key")
        return cls(
            experiment=experiment,
            configuration_key=configuration_key,
            description=None if description is None else str(description),
            reference_configuration_key=(
                None if reference is None else str(reference)
            ),
        )


def _tuple_or_none(name: str, value) -> Optional[Tuple]:
    if value is None:
        return None
    if isinstance(value, str):
        # tuple("HERMES") would silently become per-character entries.
        raise SchedulingError(
            f"campaign spec field {name!r} must be a list of strings, "
            f"not the string {value!r}"
        )
    return tuple(value)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything one validation campaign needs, as immutable data.

    The spec is the single currency of the execution API:
    :meth:`SPSystem.submit` consumes one, persists it into the common
    storage, and the CLI can load one back from disk (``campaign --spec``)
    to replay the identical campaign.
    """

    #: Cross-product matrix: experiments (None = every registered one) ...
    experiments: Optional[Tuple[str, ...]] = None
    #: ... times configuration keys (None = every known configuration).
    configuration_keys: Optional[Tuple[str, ...]] = None
    #: Explicit cell list instead of the cross product (mutually exclusive).
    requests: Optional[Tuple[ValidationRequest, ...]] = None
    description: Optional[str] = None
    workers: int = 1
    #: Concurrent task slots per worker; None uses the validation VM profile.
    slots_per_worker: Optional[int] = None
    rounds: int = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    policy: str = "fifo"
    deadline_seconds: Optional[float] = None
    #: Execution backend name from the backend registry.
    backend: str = "simulated"
    #: Worker failures injected into the campaign's simulated timeline.
    failures: Tuple[WorkerFailure, ...] = ()
    #: Restore a persisted build-cache journal before the first campaign.
    warm_start: bool = True
    #: Layer the content-addressed build cache over the builder at all.
    #: ``False`` runs the cold path (every build compiled from scratch) —
    #: the CLI's ``--no-cache`` debugging mode.
    use_cache: bool = True
    #: Size budget applied when the build cache is persisted afterwards.
    cache_budget_bytes: Optional[int] = None
    #: Record the spec in the ``campaigns`` storage namespace on submission.
    persist_spec: bool = True
    #: Ingest every completed cell into the validation history ledger
    #: (``history`` storage namespace).  ``None`` (the default) means auto:
    #: record exactly when the mounted storage already carries a ledger —
    #: so a fresh installation's output stays byte-identical to the
    #: pre-history seed path, while an installation mounted on a recorded
    #: storage keeps its longitudinal history growing.  The value travels
    #: in the serialised spec, so replays make the same decision.
    record_history: Optional[bool] = None
    #: Named lifecycle plugins from :data:`repro.plugins.CAMPAIGN_PLUGINS`
    #: attached for this submission (e.g. ``("regression-alerts",)``).
    #: Empty by default, so plain campaigns never touch plugin-owned
    #: storage namespaces and replays stay byte-identical.
    plugins: Tuple[str, ...] = ()
    #: What a ``deadline_seconds`` crossed on the simulated timeline does:
    #: ``"report"`` (late cells are reported) or ``"abort"`` (a
    #: deadline-abort early-stop policy fails the submission; the cells
    #: keep their recorded run documents).
    on_deadline: str = "report"
    #: Filesystem path of a JSONL lifecycle-event log appended during the
    #: submission (``None`` disables the sink).  The log is an external
    #: monitoring artefact outside the common storage.
    event_log: Optional[str] = None

    def __post_init__(self) -> None:
        # Normalise the container fields so equality (and therefore the
        # replay tests) never depends on list-versus-tuple spelling.
        object.__setattr__(
            self, "experiments", _tuple_or_none("experiments", self.experiments)
        )
        object.__setattr__(
            self,
            "configuration_keys",
            _tuple_or_none("configuration_keys", self.configuration_keys),
        )
        object.__setattr__(
            self, "requests", _tuple_or_none("requests", self.requests)
        )
        object.__setattr__(self, "failures", tuple(self.failures))
        if not isinstance(self.plugins, str):
            # A bare string would explode into per-character "plugins" via
            # tuple(); leave it for _check_types to reject with a clear error.
            object.__setattr__(self, "plugins", tuple(self.plugins))

    # -- validation -----------------------------------------------------------
    def _check_types(self) -> None:
        """Reject wrongly-typed fields with a clear error, not a TypeError.

        A hand-written spec file ("workers": "4", "warm_start": "yes")
        must fail as cleanly as a typo'd key does.
        """

        def fail(name: str, expected: str) -> None:
            raise SchedulingError(
                f"campaign spec field {name!r} must be {expected}, "
                f"got {getattr(self, name)!r}"
            )

        def is_int(value: object) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        for name in ("workers", "rounds", "batch_size"):
            if not is_int(getattr(self, name)):
                fail(name, "an integer")
        for name in ("slots_per_worker", "cache_budget_bytes"):
            value = getattr(self, name)
            if value is not None and not is_int(value):
                fail(name, "an integer or null")
        if self.deadline_seconds is not None and not (
            is_int(self.deadline_seconds)
            or isinstance(self.deadline_seconds, float)
        ):
            fail("deadline_seconds", "a number or null")
        for name in ("policy", "backend", "on_deadline"):
            if not isinstance(getattr(self, name), str):
                fail(name, "a string")
        if self.event_log is not None and not isinstance(self.event_log, str):
            fail("event_log", "a path string or null")
        if isinstance(self.plugins, str) or not all(
            isinstance(entry, str) for entry in self.plugins
        ):
            fail("plugins", "a list of plugin names")
        if self.description is not None and not isinstance(self.description, str):
            fail("description", "a string or null")
        for name in ("warm_start", "use_cache", "persist_spec"):
            if not isinstance(getattr(self, name), bool):
                fail(name, "a boolean")
        if self.record_history is not None and not isinstance(
            self.record_history, bool
        ):
            fail("record_history", "a boolean or null (null = auto)")
        for name in ("experiments", "configuration_keys"):
            value = getattr(self, name)
            if value is not None and not all(
                isinstance(entry, str) for entry in value
            ):
                fail(name, "a list of strings or null")
        if self.requests is not None and not all(
            isinstance(request, ValidationRequest) for request in self.requests
        ):
            fail("requests", "a list of validation requests or null")
        if not all(
            isinstance(failure, WorkerFailure) for failure in self.failures
        ):
            fail("failures", "a list of [worker_index, at_seconds] pairs")

    def validate(self) -> None:
        """Raise :class:`~repro._common.SchedulingError` on an invalid spec."""
        # Imported here: the backend registry imports this module's
        # DEFAULT_BATCH_SIZE consumers, so the top level must stay acyclic.
        from repro.scheduler.backends import EXECUTION_BACKENDS

        self._check_types()
        if self.workers < 1:
            raise SchedulingError("a campaign spec needs at least one worker")
        if self.rounds < 1:
            raise SchedulingError("a campaign spec needs at least one round")
        if self.batch_size < 1:
            raise SchedulingError(
                "a campaign spec needs a positive standalone-test batch size"
            )
        if self.slots_per_worker is not None and self.slots_per_worker < 1:
            raise SchedulingError("slots per worker must be positive")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise SchedulingError("a campaign deadline must be positive")
        if self.on_deadline not in ON_DEADLINE_MODES:
            raise SchedulingError(
                f"unknown on_deadline mode {self.on_deadline!r} "
                f"(known: {', '.join(ON_DEADLINE_MODES)})"
            )
        if self.on_deadline == "abort" and self.deadline_seconds is None:
            raise SchedulingError(
                "on_deadline='abort' needs a deadline: set deadline_seconds"
            )
        if self.plugins:
            # Imported lazily for the same acyclicity reason as the backend
            # registry above.
            from repro.plugins import CAMPAIGN_PLUGINS

            for name in self.plugins:
                if name not in CAMPAIGN_PLUGINS:
                    known = ", ".join(sorted(CAMPAIGN_PLUGINS))
                    raise SchedulingError(
                        f"unknown campaign plugin {name!r} (known: {known})"
                    )
        if self.cache_budget_bytes is not None and self.cache_budget_bytes < 0:
            raise SchedulingError("a cache budget cannot be negative")
        if self.cache_budget_bytes is not None and not self.use_cache:
            raise SchedulingError(
                "a cache budget needs the cache: with use_cache=false the "
                "budget would be a silent no-op"
            )
        if self.policy not in SCHEDULING_POLICIES:
            known = ", ".join(sorted(SCHEDULING_POLICIES))
            raise SchedulingError(
                f"unknown scheduling policy {self.policy!r} (known: {known})"
            )
        if self.backend not in EXECUTION_BACKENDS:
            known = ", ".join(sorted(EXECUTION_BACKENDS))
            raise SchedulingError(
                f"unknown execution backend {self.backend!r} (known: {known})"
            )
        if self.requests is not None and (
            self.experiments is not None or self.configuration_keys is not None
        ):
            raise SchedulingError(
                "a campaign spec takes either an explicit request list or an "
                "experiments x configurations cross product, not both"
            )

    # -- persistence ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable view; :meth:`from_dict` round-trips it exactly."""
        return {
            "experiments": (
                None if self.experiments is None else list(self.experiments)
            ),
            "configuration_keys": (
                None
                if self.configuration_keys is None
                else list(self.configuration_keys)
            ),
            "requests": (
                None
                if self.requests is None
                else [request.to_dict() for request in self.requests]
            ),
            "description": self.description,
            "workers": self.workers,
            "slots_per_worker": self.slots_per_worker,
            "rounds": self.rounds,
            "batch_size": self.batch_size,
            "policy": self.policy,
            "deadline_seconds": self.deadline_seconds,
            "backend": self.backend,
            "failures": [
                [failure.worker_index, failure.at_seconds]
                for failure in self.failures
            ],
            "warm_start": self.warm_start,
            "use_cache": self.use_cache,
            "cache_budget_bytes": self.cache_budget_bytes,
            "persist_spec": self.persist_spec,
            "record_history": self.record_history,
            "plugins": list(self.plugins),
            "on_deadline": self.on_deadline,
            "event_log": self.event_log,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        """Reconstruct a spec serialised by :meth:`to_dict`.

        Unknown keys are rejected (a typo in a hand-written spec file must
        not silently fall back to a default), missing keys take the
        dataclass defaults.  Documents written while the ``threads`` and
        ``sharded`` backends existed carry a ``shards`` field: a null one is
        dropped, ``threads`` reads as ``simulated`` and ``sharded`` (N
        shards, default ``workers``) as ``processes`` with N single-slot
        workers, which record the same science and report the same
        timeline.
        """
        if not isinstance(payload, dict):
            raise SchedulingError(
                f"a campaign spec document must be a mapping, got {payload!r}"
            )
        kwargs: Dict[str, object] = dict(payload)
        if "shards" in kwargs and kwargs["shards"] is None:
            del kwargs["shards"]
        if kwargs.get("backend") == "threads":
            kwargs["backend"] = "simulated"
        elif kwargs.get("backend") == "sharded":
            shards = kwargs.pop("shards", None)
            kwargs.update(
                backend="processes",
                workers=kwargs.get("workers", 1) if shards is None else shards,
                slots_per_worker=1,
            )
        known = {name for name in cls.__dataclass_fields__}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise SchedulingError(
                "unknown campaign spec field(s): " + ", ".join(unknown)
            )
        if kwargs.get("requests") is not None:
            requests = kwargs["requests"]
            if isinstance(requests, str) or not hasattr(requests, "__iter__"):
                raise SchedulingError(
                    "campaign spec field 'requests' must be a list of "
                    f"validation request documents, got {requests!r}"
                )
            kwargs["requests"] = tuple(
                ValidationRequest.from_dict(entry) for entry in requests
            )
        if kwargs.get("failures"):
            try:
                kwargs["failures"] = tuple(
                    WorkerFailure(
                        worker_index=int(entry[0]), at_seconds=float(entry[1])
                    )
                    for entry in kwargs["failures"]  # type: ignore[union-attr]
                )
            except (TypeError, ValueError, IndexError, KeyError) as error:
                raise SchedulingError(
                    "campaign spec field 'failures' must be a list of "
                    f"[worker_index, at_seconds] pairs: {error}"
                ) from error
        try:
            return cls(**kwargs)  # type: ignore[arg-type]
        except TypeError as error:
            raise SchedulingError(f"invalid campaign spec document: {error}") from error


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ON_DEADLINE_MODES",
    "ValidationRequest",
    "CampaignSpec",
]
