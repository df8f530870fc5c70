"""Scenario grammar, validation, and deterministic execution."""

import pytest

from repro.analysis.scenarios import (
    Scenario,
    parse_condition,
    parse_sources_policy,
    run_scenario,
    scenario_id,
    sources_for,
    validate_scenario,
)
from repro.types import InvalidParameterError


def make(
    graph="hypercube:3",
    scheduler="greedy",
    k=2,
    sources="sample:3",
    condition="none",
    seed=7,
    index=0,
):
    return Scenario(
        campaign="test",
        index=index,
        graph=graph,
        scheduler=scheduler,
        k=k,
        sources=sources,
        condition=condition,
        seed=seed,
    )


class TestGrammar:
    def test_condition_none(self):
        assert parse_condition("none") == ("none", 0)

    def test_condition_edge_faults(self):
        assert parse_condition("edge-faults:3") == ("edge-faults", 3)

    def test_condition_congestion_default_bandwidth(self):
        assert parse_condition("congestion") == ("congestion", 1)
        assert parse_condition("congestion:4") == ("congestion", 4)

    @pytest.mark.parametrize(
        "bad",
        ["none:1", "edge-faults", "edge-faults:x", "edge-faults:0", "bogus:2"],
    )
    def test_condition_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_condition(bad)

    def test_sources_policies(self):
        assert parse_sources_policy("first") == ("first", 0)
        assert parse_sources_policy("all") == ("all", 0)
        assert parse_sources_policy("sample:5") == ("sample", 5)
        assert parse_sources_policy("sample") == ("sample", 16)

    @pytest.mark.parametrize(
        "bad", ["first:1", "all:2", "sample:x", "sample:1", "most"]
    )
    def test_sources_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_sources_policy(bad)

    def test_sources_for(self):
        assert sources_for("first", 8) == [0]
        assert sources_for("all", 4) == [0, 1, 2, 3]
        sample = sources_for("sample:3", 100)
        assert len(sample) <= 3 and 0 in sample and 99 in sample

    def test_scenario_id_stable(self):
        sid = scenario_id("hypercube:3", "greedy", None, "first", "none")
        assert sid == "g=hypercube:3;s=greedy;k=inf;src=first;cond=none"


class TestValidation:
    def test_accepts_registry_scheduler(self):
        validate_scenario(make())

    def test_accepts_scheme_on_sparse(self):
        validate_scenario(make(graph="sparse:4:2", scheduler="scheme", k=None))

    def test_rejects_scheme_off_sparse(self):
        with pytest.raises(InvalidParameterError):
            validate_scenario(make(scheduler="scheme"))

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(InvalidParameterError):
            validate_scenario(make(scheduler="bogus"))

    def test_rejects_bad_graph_spec(self):
        with pytest.raises(InvalidParameterError):
            validate_scenario(make(graph="nope:3"))
        with pytest.raises(InvalidParameterError):
            validate_scenario(make(graph="hypercube:3:9:9"))

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            validate_scenario(make(k=0))


class TestExecution:
    def test_rows_are_deterministic(self):
        sc = make()
        assert run_scenario(sc) == run_scenario(sc)

    def test_row_is_json_scalars(self):
        import json

        row = run_scenario(make())
        assert json.loads(json.dumps(row)) == row
        assert row["n_sources"] == 3
        assert row["found"] == row["valid"] == 3
        assert row["rounds_min"] == row["rounds_max"] == 3  # ceil(log2 8)

    def test_edge_faults_row_reports_survivor(self):
        row = run_scenario(make(k=None, condition="edge-faults:2"))
        assert row["failed_edges"] == 2
        assert row["survivor_edges"] == row["n_edges"] - 2
        assert isinstance(row["survivor_connected"], bool)

    def test_congestion_row_reports_profile(self):
        row = run_scenario(make(condition="congestion:1"))
        # a valid Definition-1 schedule never stacks calls on one edge
        assert row["peak_concurrency"] == 1
        assert row["min_bandwidth"] == 1
        assert row["rejected_calls"] == 0
        assert 0 < row["edge_utilization"] <= 1

    def test_scheme_all_sources_via_batch(self):
        row = run_scenario(
            make(graph="sparse:4:2", scheduler="scheme", k=None, sources="all")
        )
        assert row["n_sources"] == 16
        assert row["found"] == row["valid"] == 16
        assert row["rounds_min"] == row["rounds_max"] == 4
        assert row["n_cosets"] >= 1

    def test_scheme_reads_its_spec_as_graph_specs_do(self):
        """``Sparse:4:2`` spells ``sparse:4:2``: the ``scheme`` row differs
        only in the fields that quote the spelling."""

        def row(graph):
            sc = make(graph=graph, scheduler="scheme", k=None, sources="all")
            measured = run_scenario(sc)
            assert (measured.pop("graph"), measured.pop("scenario")) == (
                graph,
                sc.scenario_id,
            )
            return measured

        assert row("Sparse:4:2") == row("sparse:4:2")

    def test_scheme_fault_repair(self):
        row = run_scenario(
            make(
                graph="sparse:5:2",
                scheduler="scheme",
                k=None,
                sources="sample:4",
                condition="edge-faults:1",
            )
        )
        # repair rate is data, not a pass/fail: found <= sources, and every
        # repaired schedule must validate on the survivor graph
        assert 0 <= row["found"] <= row["n_sources"]
        assert row["valid"] == row["found"]

    def test_incompatible_scheduler_records_errors(self):
        # store_forward only accepts complete hypercubes: on a path the
        # scenario still yields a deterministic row, with errors counted
        row = run_scenario(make(graph="path:8", scheduler="store_forward", k=1))
        assert row["errors"] == row["n_sources"]
        assert row["found"] == 0

    def test_infeasible_k_yields_zero_found(self):
        # a path cannot broadcast in ceil(log2 N) rounds at k = 1; the
        # exact search certifies that as found = 0 with no errors
        row = run_scenario(make(graph="path:8", scheduler="search", k=1))
        assert row["found"] == 0
        assert row["errors"] == 0
