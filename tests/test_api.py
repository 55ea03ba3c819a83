"""Tests for the canonical public wire schema (``repro.api``)."""

import numpy as np
import pytest

import repro
from repro import api
from repro.core.request import EstimationRequest
from repro.core.results import ErrorRateReport
from repro.sta import Gaussian
from repro.stats import PoissonGaussianMixture
from repro.stats.chen_stein import ChenSteinBound
from repro.stats.stein import SteinNormalBound


@pytest.fixture(scope="module")
def report():
    lam = Gaussian(500.0, 2500.0)
    return ErrorRateReport(
        program="toy",
        total_instructions=100_000,
        static_instructions=50,
        basic_blocks=7,
        characterized_pairs=12,
        lam=lam,
        mixture=PoissonGaussianMixture(lam),
        stein=SteinNormalBound(
            mean=500.0, variance=2500.0, b1=0.2, b2=0.1,
            d_wasserstein=0.3, d_kolmogorov=0.268,
            d_kolmogorov_conservative=0.49, d_kolmogorov_empirical=0.03,
        ),
        chen_stein=ChenSteinBound(
            b1_samples=np.array([4.0, 5.0]),
            b2_samples=np.array([2.0, 3.0]),
            b1_worst=6.0,
            b2_worst=4.0,
            lambda_mean=500.0,
            d_kolmogorov=0.02,
        ),
        training_seconds=1.5,
        simulation_seconds=2.5,
    )


class TestRequestCodec:
    def test_round_trip_is_identity(self):
        request = api.build_request(
            workload="bitcount",
            speculation=1.1,
            max_instructions=5000,
            train_instructions=2000,
            seed=3,
        )
        doc = api.request_to_json(request)
        assert doc["schema"] == api.SCHEMA
        assert doc["kind"] == "estimation-request"
        assert api.request_from_json(doc) == request

    def test_build_request_drops_none(self):
        request = api.build_request(workload="bitcount", speculation=None)
        assert request.speculation is None
        assert request.train_scale == "small"

    def test_unknown_field_rejected_with_clear_error(self):
        doc = {
            "schema": 2,
            "kind": "estimation-request",
            "workload": "bitcount",
            "specluation": 1.1,  # typo on purpose
        }
        with pytest.raises(api.ApiError) as err:
            api.request_from_json(doc)
        message = str(err.value)
        assert "specluation" in message
        assert "speculation" in message  # the valid spelling is listed

    def test_wrong_type_rejected(self):
        for field, value in [
            ("workload", 7),
            ("speculation", "fast"),
            ("max_instructions", 1.5),
            ("seed", True),
        ]:
            doc = {"schema": 2, "workload": "bitcount", field: value}
            with pytest.raises(api.ApiError, match=field):
                api.request_from_json(doc)

    def test_missing_workload_rejected(self):
        with pytest.raises(api.ApiError, match="workload"):
            api.request_from_json({"schema": 2, "train_scale": "small"})

    def test_invalid_scale_wrapped_as_api_error(self):
        with pytest.raises(api.ApiError, match="train_scale"):
            api.request_from_json(
                {"schema": 2, "workload": "bitcount", "train_scale": "huge"}
            )

    def test_out_of_range_values_rejected_at_parse(self):
        import json

        for field, value in [
            ("max_instructions", -5),
            ("max_instructions", 0),
            ("train_instructions", 0),
            ("seed", -1),
            ("train_seed", -1),
            ("eval_seed", -1),
        ]:
            doc = {"schema": 2, "workload": "bitcount", field: value}
            with pytest.raises(api.ApiError, match=field):
                api.requests_from_json(doc)
        # A plain ``json.loads`` reads ``Infinity``.
        doc = json.loads(
            '{"schema": 2, "workload": "bitcount", "speculation": Infinity}'
        )
        with pytest.raises(api.ApiError, match="finite"):
            api.requests_from_json(doc)

    def test_null_in_non_nullable_field_rejected(self):
        with pytest.raises(api.ApiError, match="must not be null"):
            api.request_from_json(
                {"schema": 2, "workload": "bitcount", "train_scale": None}
            )

    def test_v1_identity_doc_still_reads(self):
        # The exact shape EstimationRequest.identity_doc() emitted in v1.
        request = EstimationRequest(workload="bitcount", speculation=1.2)
        doc = request.identity_doc()
        assert "schema" not in doc
        parsed = api.request_from_json(doc)
        assert parsed.workload == "bitcount"
        assert parsed.speculation == 1.2

    def test_v1_benchmark_alias_reads(self):
        parsed = api.request_from_json({"benchmark": "dijkstra"})
        assert parsed.workload == "dijkstra"

    def test_v2_rejects_v1_alias(self):
        with pytest.raises(api.ApiError, match="benchmark"):
            api.request_from_json({"schema": 2, "benchmark": "dijkstra"})

    def test_unsupported_schema_version(self):
        with pytest.raises(api.ApiError, match="schema 5"):
            api.request_from_json({"schema": 5, "workload": "bitcount"})

    def test_wrong_kind_rejected(self):
        with pytest.raises(api.ApiError, match="job-status"):
            api.request_from_json(
                {"schema": 2, "kind": "job-status", "workload": "bitcount"}
            )

    def test_workload_object_has_no_wire_form(self):
        from repro.workloads import load_workload

        request = EstimationRequest(workload=load_workload("bitcount"))
        with pytest.raises(api.ApiError, match="wire form"):
            api.request_to_json(request)


class TestCoreFamilyCompat:
    """Schema-4 ``core_family`` field and pre-family document defaults."""

    def test_wire_doc_always_carries_family(self):
        request = api.build_request(workload="bitcount", speculation=1.1)
        doc = api.request_to_json(request)
        assert doc["schema"] == 4
        assert doc["core_family"] == "inorder6"

    def test_round_trip_preserves_family(self):
        request = api.build_request(
            workload="bitcount", speculation=1.1, core_family="ooo-tomasulo"
        )
        doc = api.request_to_json(request)
        assert doc["core_family"] == "ooo-tomasulo"
        parsed = api.request_from_json(doc)
        assert parsed == request
        assert parsed.core_family == "ooo-tomasulo"

    def test_v1_identity_doc_defaults_to_inorder(self):
        doc = EstimationRequest(workload="bitcount").identity_doc()
        assert "core_family" not in doc  # pre-family identity preserved
        assert api.request_from_json(doc).core_family == "inorder6"

    def test_v2_doc_defaults_to_inorder(self):
        parsed = api.request_from_json(
            {"schema": 2, "workload": "bitcount", "speculation": 1.2}
        )
        assert parsed.core_family == "inorder6"

    def test_v3_grid_doc_defaults_to_inorder(self):
        parsed = api.requests_from_json(
            {"schema": 3, "workload": "bitcount", "speculations": [1.1, 1.2]}
        )
        assert [r.core_family for r in parsed] == ["inorder6", "inorder6"]

    def test_unknown_family_rejected_naming_field(self):
        with pytest.raises(api.ApiError, match="core_family"):
            api.request_from_json(
                {
                    "schema": 4,
                    "workload": "bitcount",
                    "core_family": "vliw-9000",
                }
            )

    def test_unknown_family_error_lists_registered(self):
        with pytest.raises(api.ApiError, match="inorder6"):
            api.request_from_json(
                {
                    "schema": 4,
                    "workload": "bitcount",
                    "core_family": "vliw-9000",
                }
            )

    def test_grid_round_trip_preserves_family(self):
        requests = [
            api.build_request(
                workload="bitcount", speculation=s,
                core_family="ooo-tomasulo",
            )
            for s in (1.05, 1.10)
        ]
        doc = api.grid_request_to_json(requests)
        assert doc["core_family"] == "ooo-tomasulo"
        assert api.requests_from_json(doc) == requests


class TestMultiPointCodec:
    """Schema-3 multi-point estimation-request documents."""

    def _sweep(self, specs=(1.05, 1.10, 1.20)):
        return [
            api.build_request(
                workload="bitcount", speculation=s,
                max_instructions=5000, seed=0,
            )
            for s in specs
        ]

    def test_grid_round_trip(self):
        requests = self._sweep()
        doc = api.grid_request_to_json(requests)
        assert doc["schema"] == api.SCHEMA
        assert doc["kind"] == "estimation-request"
        assert doc["speculations"] == [1.05, 1.10, 1.20]
        assert "speculation" not in doc or doc["speculation"] is None
        assert api.requests_from_json(doc) == requests

    def test_single_request_doc_expands_to_one(self):
        request = self._sweep((1.15,))[0]
        doc = api.request_to_json(request)
        assert api.requests_from_json(doc) == [request]

    def test_single_request_passthrough_in_grid_encoder(self):
        request = self._sweep((1.15,))[0]
        doc = api.grid_request_to_json([request])
        assert api.requests_from_json(doc) == [request]

    def test_scalar_reader_rejects_multi_point(self):
        doc = api.grid_request_to_json(self._sweep())
        with pytest.raises(api.ApiError, match="requests_from_json"):
            api.request_from_json(doc)

    def test_rejects_heterogeneous_bases(self):
        mixed = self._sweep((1.05,)) + [
            api.build_request(
                workload="stringsearch", speculation=1.10,
                max_instructions=5000, seed=0,
            )
        ]
        with pytest.raises(api.ApiError):
            api.grid_request_to_json(mixed)

    def test_rejects_bad_speculations_field(self):
        base = api.request_to_json(self._sweep((1.05,))[0])
        base.pop("speculation", None)
        for bad in ([], ["fast"], [True], "1.05,1.10"):
            doc = dict(base, speculations=bad)
            with pytest.raises(api.ApiError, match="speculations"):
                api.requests_from_json(doc)

    def test_rejects_both_speculation_fields(self):
        doc = api.request_to_json(self._sweep((1.05,))[0])
        doc["speculations"] = [1.10, 1.20]
        with pytest.raises(api.ApiError):
            api.requests_from_json(doc)

    def test_legacy_schema2_doc_still_reads(self):
        parsed = api.requests_from_json(
            {"schema": 2, "workload": "bitcount", "speculation": 1.2}
        )
        assert len(parsed) == 1
        assert parsed[0].speculation == 1.2


class TestJobStatus:
    def _status(self, **overrides):
        fields = dict(id="j1", state="queued", submitted_at=1.0)
        fields.update(overrides)
        return api.JobStatus(**fields)

    def test_round_trip(self):
        status = self._status(
            state="done",
            started_at=2.0,
            finished_at=3.0,
            attempts=2,
            worker="worker-0",
            stages=[{"stage": "dta", "status": "hit"}],
            request={"schema": 2, "workload": "bitcount"},
        )
        doc = status.to_json()
        assert doc["schema"] == api.SCHEMA
        assert doc["kind"] == "job-status"
        assert api.JobStatus.from_json(doc) == status

    def test_finished_states(self):
        assert not self._status(state="queued").finished
        assert not self._status(state="running").finished
        assert self._status(state="done").finished
        assert self._status(state="failed").finished

    def test_unknown_state_rejected(self):
        with pytest.raises(api.ApiError, match="exploded"):
            self._status(state="exploded")

    def test_unknown_field_rejected(self):
        doc = self._status().to_json()
        doc["surprise"] = 1
        with pytest.raises(api.ApiError, match="surprise"):
            api.JobStatus.from_json(doc)


class TestReportAndResultCodec:
    def test_report_schema2_round_trip(self, report):
        doc = api.report_to_json(report)
        assert doc["schema"] == api.SCHEMA
        assert doc["kind"] == "error-rate-report"
        rebuilt = api.report_from_json(doc)
        assert rebuilt.error_rate_mean == report.error_rate_mean
        assert rebuilt.to_json() == report.to_json()

    def test_report_v1_tag_still_reads(self, report):
        doc = report.to_json()  # legacy string-tagged document
        rebuilt = api.report_from_json(doc)
        assert rebuilt.to_json() == report.to_json()

    def test_job_result_round_trip(self, report):
        result = api.JobResult(
            job="j42",
            report_doc=api.report_to_json(report),
            cache_hit=True,
            seed=9,
            training_sims=0,
            stages=[{"stage": "dta", "status": "hit"}],
        )
        doc = result.to_json()
        assert doc["kind"] == "job-result"
        rebuilt = api.JobResult.from_json(doc)
        assert rebuilt.job == "j42"
        assert rebuilt.cache_hit is True
        assert rebuilt.training_sims == 0
        assert rebuilt.report.to_json() == report.to_json()

    def test_job_result_requires_report(self):
        with pytest.raises(api.ApiError, match="report"):
            api.JobResult.from_json(
                {"schema": 2, "kind": "job-result", "job": "j1"}
            )


class TestPublicSurface:
    def test_reexported_from_repro(self):
        assert repro.api is api
        assert repro.JobStatus is api.JobStatus
        assert repro.JobResult is api.JobResult
        assert repro.ApiError is api.ApiError
        assert api.EstimationRequest is EstimationRequest
