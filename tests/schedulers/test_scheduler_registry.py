"""The scheduler registry: discovery, the request/result API, the CLI
subcommand, and cross-scheduler agreement on pinned families."""

import warnings

import pytest

import repro.schedulers as schedulers
from repro.graphs.hypercube import hypercube
from repro.graphs.trees import balanced_ternary_core_tree, path_graph, star
from repro.model.validator import minimum_broadcast_rounds, validate_broadcast
from repro.schedulers import registry
from repro.schedulers.registry import ScheduleRequest, run_scheduler
from repro.types import InvalidParameterError

EXPECTED_NAMES = ["greedy", "multimsg_search", "search", "store_forward"]


class TestRegistryContents:
    def test_all_schedulers_registered(self):
        assert registry.scheduler_names() == EXPECTED_NAMES

    def test_specs_have_titles_and_callables(self):
        for spec in registry.all_schedulers():
            assert spec.title
            assert callable(spec.fn)
            assert spec.module.startswith("repro.schedulers.")

    def test_lookup_is_case_insensitive(self):
        assert registry.get_scheduler("GREEDY") is registry.get_scheduler("greedy")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            registry.get_scheduler("simulated-annealing")

    def test_double_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            registry.scheduler("greedy", "duplicate")(lambda req: (None, {}))

    @pytest.mark.parametrize(
        "name", ["greedy", "search", "store_forward", "multimsg_search"]
    )
    def test_unknown_params_rejected(self, name):
        graph = hypercube(2) if name == "store_forward" else path_graph(4)
        with pytest.raises(InvalidParameterError):
            run_scheduler(name, ScheduleRequest(graph=graph, params={"bogus": 1}))

    @pytest.mark.parametrize(
        "name, params",
        [
            ("greedy", {"restarts": 0}),
            ("greedy", {"sample_cap": 0}),
            ("greedy", {"sample_cap": -1}),
            ("search", {"node_budget": 0}),
            ("multimsg_search", {"node_budget": 0}),
        ],
    )
    def test_unusable_params_rejected(self, name, params):
        (key,) = params
        with pytest.raises(InvalidParameterError, match=f"{key} must be >= 1"):
            run_scheduler(name, ScheduleRequest(graph=path_graph(4), params=params))

    @pytest.mark.parametrize(
        "name", ["greedy", "search", "store_forward", "multimsg_search"]
    )
    def test_negative_rounds_rejected(self, name):
        graph = hypercube(2) if name == "store_forward" else path_graph(4)
        with pytest.raises(InvalidParameterError, match="rounds must be >= 0"):
            run_scheduler(name, ScheduleRequest(graph=graph, rounds=-1))

    def test_multimsg_budget_exhaustion_is_a_search_budget_error(self):
        from repro.schedulers.search import SearchBudgetExceeded

        with pytest.raises(SearchBudgetExceeded):
            run_scheduler(
                "multimsg_search",
                ScheduleRequest(graph=hypercube(3), params={"node_budget": 1}),
            )

    def test_multimsg_rejects_bad_source(self):
        from repro.schedulers.multimsg_search import find_multimessage_schedule

        for source in (-1, 99):
            with pytest.raises(InvalidParameterError, match="not a vertex"):
                find_multimessage_schedule(path_graph(4), source, 2, 1, 2)


class TestPackageExports:
    def test_registry_spellings_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_scheduler(
                "greedy",
                ScheduleRequest(graph=hypercube(3), source=0, seed=1),
                validate=False,
            )

    def test_multimessage_functions_stay_first_class(self):
        """The registry cannot carry a MultiMessageSchedule for M>1, so
        the multimsg trio stays exported by the package."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert callable(schedulers.find_multimessage_schedule)
            assert callable(schedulers.multimessage_lower_bound)
            assert callable(schedulers.validate_multimessage)

    def test_unknown_attribute_still_raises(self):
        """Strategy functions live in their submodules, not on the
        package: callers go through ``run_scheduler``."""
        for name in (
            "not_a_scheduler",
            "heuristic_line_broadcast",
            "find_minimum_time_schedule",
            "binomial_hypercube_broadcast",
        ):
            with pytest.raises(AttributeError):
                getattr(schedulers, name)


class TestRequestDefaults:
    def test_k_effective_unbounded(self):
        req = ScheduleRequest(graph=path_graph(9))
        assert req.k_effective == 8
        assert ScheduleRequest(graph=path_graph(9), k=2).k_effective == 2

    def test_round_budget_default_is_minimum(self):
        req = ScheduleRequest(graph=path_graph(9))
        assert req.round_budget == minimum_broadcast_rounds(9)
        assert ScheduleRequest(graph=path_graph(9), rounds=5).round_budget == 5


class TestResultsAreReferenceValid:
    """Acceptance: every registered scheduler's schedules pass the
    *reference* validator."""

    @pytest.mark.parametrize(
        "name,graph,k",
        [
            ("greedy", balanced_ternary_core_tree(2), 4),
            ("search", balanced_ternary_core_tree(2), 4),
            ("store_forward", hypercube(3), 1),
            ("multimsg_search", hypercube(3), 1),
        ],
    )
    def test_schedule_validates(self, name, graph, k):
        result = run_scheduler(name, ScheduleRequest(graph=graph, source=0, k=k))
        assert result.found
        assert result.schedule is not None
        assert result.valid is True
        report = validate_broadcast(graph, result.schedule, k)
        assert report.ok
        assert result.rounds == minimum_broadcast_rounds(graph.n_vertices)
        assert result.seconds >= 0

    def test_store_forward_rejects_non_hypercube(self):
        with pytest.raises(InvalidParameterError):
            run_scheduler("store_forward", ScheduleRequest(graph=star(8), source=0))

    def test_multimsg_two_messages_reported_in_stats(self):
        result = run_scheduler(
            "multimsg_search",
            ScheduleRequest(graph=hypercube(3), k=1, params={"n_messages": 2}),
        )
        assert result.found
        assert result.schedule is None  # M > 1 is not a Definition-1 schedule
        assert result.rounds == 5  # tight lower bound, certified achievable
        assert result.stats["errors"] == []


class TestCrossSchedulerAgreement:
    """Greedy (when it succeeds) and exact search agree on the minimum
    round count — Theorem-1 tree families and small hypercubes,
    k ∈ {1, 2, ∞}."""

    @pytest.mark.parametrize(
        "graph,label",
        [
            (balanced_ternary_core_tree(1), "tern1"),
            (balanced_ternary_core_tree(2), "tern2"),
            (hypercube(2), "q2"),
            (hypercube(3), "q3"),
        ],
    )
    @pytest.mark.parametrize("k", [1, 2, None])
    def test_greedy_agrees_with_search(self, graph, label, k):
        req_kwargs = dict(graph=graph, source=0, k=k, seed=0)
        exact = run_scheduler("search", ScheduleRequest(**req_kwargs))
        greedy = run_scheduler(
            "greedy",
            ScheduleRequest(**req_kwargs, params={"restarts": 150}),
        )
        if greedy.schedule is not None:
            # greedy success ⇒ a minimum-time schedule exists ⇒ the
            # exhaustive search must find one of the same length
            assert exact.schedule is not None
            assert greedy.rounds == exact.rounds
            assert greedy.valid is True and exact.valid is True
        if exact.schedule is None:
            # search refutation is a certificate: greedy cannot succeed
            assert greedy.schedule is None

    @pytest.mark.parametrize("k", [1, 2, None])
    def test_multimsg_single_message_agrees_with_search(self, k):
        graph = hypercube(2)
        exact = run_scheduler("search", ScheduleRequest(graph=graph, source=0, k=k))
        multi = run_scheduler(
            "multimsg_search", ScheduleRequest(graph=graph, source=0, k=k)
        )
        assert (exact.schedule is None) == (multi.schedule is None)
        if exact.schedule is not None:
            assert exact.rounds == multi.rounds

    def test_store_forward_matches_search_on_q2(self):
        graph = hypercube(2)
        exact = run_scheduler("search", ScheduleRequest(graph=graph, source=0, k=1))
        sf = run_scheduler("store_forward", ScheduleRequest(graph=graph, source=0, k=1))
        assert exact.rounds == sf.rounds == 2


class TestScheduleCli:
    def test_schedule_list(self, capsys):
        from repro.cli import main

        assert main(["schedule", "--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_NAMES:
            assert name in out

    def test_schedule_run_search(self, capsys):
        from repro.cli import main

        cmd = "schedule --graph hypercube:3 --scheduler search --k 1 --seed 0"
        code = main(cmd.split())
        assert code == 0
        out = capsys.readouterr().out
        assert "search" in out and "hypercube:3" in out

    def test_schedule_run_greedy_seeded(self, capsys):
        from repro.cli import main

        cmd = "schedule --graph theorem1:2 --scheduler greedy --seed 7 --restarts 100"
        code = main(cmd.split())
        assert code == 0

    def test_schedule_infeasible_exits_nonzero(self):
        from repro.cli import main

        # star from a leaf at k=1 cannot finish in 2 rounds (certificate)
        cmd = "schedule --graph star:4 --source 1 --scheduler search --k 1"
        code = main(cmd.split())
        assert code == 1

    def test_schedule_bad_spec_errors(self, capsys):
        from repro.cli import main

        assert main(["schedule", "--graph", "klein-bottle:4"]) == 2
        assert "unknown graph spec" in capsys.readouterr().err

    def test_schedule_without_graph_errors(self, capsys):
        from repro.cli import main

        assert main(["schedule"]) == 2
        assert "--graph" in capsys.readouterr().err
