"""Tests for the four-phase work flow and the SPSystem facade."""

import pytest

from repro._common import ValidationError
from repro.core.freeze import FreezeReason
from repro.core.spsystem import SPSystem
from repro.core.workflow import PreservationWorkflow, WorkflowPhase
from repro.scheduler.spec import CampaignSpec
from repro.storage.bookkeeping import EPOCH_2013


class TestPreservationWorkflow:
    def test_registration_starts_in_preparation(self):
        workflow = PreservationWorkflow()
        workflow.register("H1")
        assert workflow.phase_of("H1") is WorkflowPhase.PREPARATION
        with pytest.raises(ValidationError):
            workflow.register("H1")
        with pytest.raises(ValidationError):
            workflow.phase_of("GHOST")

    def test_legal_and_illegal_transitions(self):
        workflow = PreservationWorkflow()
        workflow.register("H1")
        with pytest.raises(ValidationError):
            workflow.transition("H1", WorkflowPhase.FROZEN, EPOCH_2013, "too early")
        workflow.transition("H1", WorkflowPhase.REGULAR_VALIDATION, EPOCH_2013, "ready")
        workflow.transition("H1", WorkflowPhase.INTERVENTION, EPOCH_2013, "failure")
        workflow.transition("H1", WorkflowPhase.REGULAR_VALIDATION, EPOCH_2013, "fixed")
        workflow.transition("H1", WorkflowPhase.FROZEN, EPOCH_2013, "end")
        with pytest.raises(ValidationError):
            workflow.transition("H1", WorkflowPhase.REGULAR_VALIDATION, EPOCH_2013, "revive")
        assert len(workflow.history("H1")) == 4

    def test_preparation_report_for_healthy_experiment(self, tiny_h1, sl5_64_gcc44):
        workflow = PreservationWorkflow()
        report = workflow.prepare(tiny_h1, sl5_64_gcc44)
        assert report.ready
        assert report.dependency_problems == []
        assert report.missing_capabilities == []
        assert report.test_counts["total"] == tiny_h1.total_test_count()

    def test_preparation_detects_unnecessary_externals(self, tiny_hermes, sl5_64_gcc44):
        workflow = PreservationWorkflow()
        report = workflow.prepare(tiny_hermes, sl5_64_gcc44)
        # HERMES (level 3) does not use GEANT3 or the MC generator libraries in
        # this scaled definition, so the preparation phase flags them.
        assert report.ready
        assert isinstance(report.unnecessary_externals, list)

    def test_complete_preparation_transitions(self, tiny_hermes, sl5_64_gcc44):
        workflow = PreservationWorkflow()
        workflow.register("HERMES")
        workflow.complete_preparation(tiny_hermes, sl5_64_gcc44, EPOCH_2013)
        assert workflow.phase_of("HERMES") is WorkflowPhase.REGULAR_VALIDATION

    def test_preparation_detects_missing_capabilities(self, tiny_h1, sl5_64_gcc44):
        from dataclasses import replace

        stripped = replace(tiny_h1, chains=[], standalone_tests=[])
        workflow = PreservationWorkflow()
        report = workflow.prepare(stripped, sl5_64_gcc44)
        assert not report.ready
        assert "simulation" in report.missing_capabilities
        workflow.register(stripped.name)
        with pytest.raises(ValidationError):
            workflow.complete_preparation(stripped, sl5_64_gcc44, EPOCH_2013)


class TestSPSystem:
    def test_provisioning_standard_images(self, sp_system):
        assert len(sp_system.hypervisor.images()) == 5
        assert len(sp_system.configurations()) == 5
        assert sp_system.configuration("SL6_64bit_gcc4.4").word_size == 64
        with pytest.raises(ValidationError):
            sp_system.configuration("SL9")

    def test_register_and_lookup_experiment(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        assert sp_system.experiment("HERMES") is tiny_hermes
        assert [experiment.name for experiment in sp_system.experiments()] == ["HERMES"]
        with pytest.raises(ValidationError):
            sp_system.register_experiment(tiny_hermes)
        with pytest.raises(ValidationError):
            sp_system.experiment("GHOST")

    def test_successful_validation_cycle(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        result = sp_system.validate("HERMES", "SL5_64bit_gcc4.4")
        assert result.successful
        assert result.diagnosis is None
        assert result.tickets == []
        assert sp_system.total_runs() == 1
        assert sp_system.workflow.phase_of("HERMES") is WorkflowPhase.REGULAR_VALIDATION
        assert "PASSED" in result.summary()

    def test_failed_cycle_opens_tickets_and_enters_intervention(
        self, sp_system, tiny_zeus
    ):
        sp_system.register_experiment(tiny_zeus)
        sp_system.validate("ZEUS", "SL5_64bit_gcc4.4")
        result = sp_system.validate("ZEUS", "SL6_64bit_gcc4.4")
        assert not result.successful
        assert result.diagnosis is not None
        assert result.tickets
        assert sp_system.workflow.phase_of("ZEUS") is WorkflowPhase.INTERVENTION
        # A subsequent good run returns the experiment to regular validation.
        recovery = sp_system.validate("ZEUS", "SL5_64bit_gcc4.4")
        assert recovery.successful
        assert sp_system.workflow.phase_of("ZEUS") is WorkflowPhase.REGULAR_VALIDATION

    def test_validate_everywhere(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        results = sp_system.submit(
            CampaignSpec(experiments=("HERMES",), persist_spec=False)
        ).result().cycles_for("HERMES")
        assert len(results) == 5
        assert sp_system.total_runs() == 5

    def test_publish_recipe_and_freeze(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        result = sp_system.validate("HERMES", "SL5_64bit_gcc4.4")
        recipe = sp_system.publish_recipe(result)
        assert recipe.experiment == "HERMES"
        frozen = sp_system.freeze_experiment("HERMES", result, FreezeReason.SATISFACTORY)
        assert sp_system.workflow.phase_of("HERMES") is WorkflowPhase.FROZEN
        assert frozen.image_name.startswith("vm-SL5_64bit")
        with pytest.raises(ValidationError):
            sp_system.validate("HERMES", "SL5_64bit_gcc4.4")

    def test_describe_structure(self, sp_system, tiny_hermes):
        sp_system.register_experiment(tiny_hermes)
        sp_system.validate("HERMES", "SL5_32bit_gcc4.1")
        description = sp_system.describe()
        assert len(description["configurations"]) == 5
        assert description["experiments"]["HERMES"]["preservation_level"] == 3
        assert description["total_runs"] == 1
        assert description["artifacts"] > 0

    def test_add_custom_configuration(self, sp_system, sl7_root6):
        key = sp_system.add_configuration(sl7_root6)
        assert key == sl7_root6.key
        assert len(sp_system.configurations()) == 6
        assert sp_system.hypervisor.image_for_configuration(sl7_root6) is not None
