"""End-to-end integration tests across packages.

These are the "does the whole pipeline hang together" checks: construct →
broadcast → simulate → validate → account congestion, plus cross-checks
between independent implementations (scheme vs exact search, flat rule vs
recursive reference, formula vs built graph, our BFS vs networkx).
"""

import json

import pytest

from repro.core.bounds import upper_bound_theorem5, upper_bound_theorem7
from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct, construct_base
from repro.core.params import default_thresholds, theorem5_m_star
from repro.graphs.hypercube import hypercube
from repro.model.congestion import congestion_profile
from repro.model.simulator import LineNetworkSimulator
from repro.model.validator import validate_broadcast, verify_k_mlbg_via_scheme
from repro.schedulers.search import find_minimum_time_schedule, is_k_mlbg_exact


class TestFullPipeline:
    @pytest.mark.parametrize("k,n", [(2, 8), (3, 8), (4, 9)])
    def test_construct_broadcast_simulate_validate(self, k, n):
        thr = default_thresholds(k, n) if k > 2 else (theorem5_m_star(n),)
        sh = construct(k, n, thr)
        g = sh.graph

        # bound check
        bound = upper_bound_theorem5(n) if k == 2 else upper_bound_theorem7(n, k)
        assert g.max_degree() <= bound

        # scheme from a few sources: validator + simulator agree
        for s in (0, g.n_vertices // 3, g.n_vertices - 1):
            sched = broadcast_schedule(sh, s)
            rep = validate_broadcast(g, sched, k)
            assert rep.ok
            sim = LineNetworkSimulator(g, k=k)
            result = sim.run(sched)
            assert len(result.informed) == g.n_vertices
            assert not result.rejected
            prof = congestion_profile(g, sched)
            assert prof.peak_concurrency == 1

    def test_scheme_agrees_with_exact_search_small(self):
        """Two fully independent certifications of Definition 3 on the
        same instance."""
        sh = construct_base(4, 2)
        assert verify_k_mlbg_via_scheme(sh)
        assert is_k_mlbg_exact(sh.graph, 2)

    def test_scheme_schedule_is_minimum_by_search(self):
        """The exact searcher cannot beat ⌈log₂N⌉, and the scheme attains
        it — so the scheme is optimal."""
        sh = construct_base(3, 1)
        g = sh.graph
        for s in range(8):
            found = find_minimum_time_schedule(g, s, 2)
            assert found is not None
            assert len(found.rounds) == 3 == len(broadcast_schedule(sh, s).rounds)

    def test_sparse_graphs_save_edges_and_degree(self):
        n = 10
        q = hypercube(n)
        sh = construct_base(n, theorem5_m_star(n))
        g = sh.graph
        assert g.n_edges < q.n_edges
        assert g.max_degree() < q.max_degree()
        assert g.n_vertices == q.n_vertices
        assert g.is_subgraph_of(q)

    def test_simulator_and_validator_reject_identically(self):
        """Corrupt a schedule; both layers must flag it."""
        sh = construct_base(5, 2)
        g = sh.graph
        sched = broadcast_schedule(sh, 0)
        # corrupt: duplicate the first call of round 2 into round 1
        from repro.types import Round, Schedule

        rounds = list(sched.rounds)
        rounds[0] = Round(rounds[0].calls + (rounds[1].calls[0],))
        bad = Schedule(source=0, rounds=rounds)
        rep = validate_broadcast(g, bad, 2)
        assert not rep.ok
        sim = LineNetworkSimulator(g, k=2, strict=False)
        result = sim.run(bad)
        assert result.rejected


class TestCrossCheckNetworkx:
    def test_distances_on_sparse_hypercube(self):
        import networkx as nx

        sh = construct(3, 7, (2, 4))
        g = sh.graph
        nxg = g.to_networkx()
        for u in (0, 64, 127):
            ours = g.bfs_distances(u)
            theirs = nx.single_source_shortest_path_length(nxg, u)
            assert all(ours[v] == theirs[v] for v in range(g.n_vertices))

    def test_connectivity_and_degree_agree(self):
        import networkx as nx

        sh = construct_base(8, 3)
        g = sh.graph
        nxg = g.to_networkx()
        assert nx.is_connected(nxg) == g.is_connected()
        assert max(d for _, d in nxg.degree()) == g.max_degree()


class TestCLISubcommands:
    def test_run_subcommand(self, capsys):
        from repro.cli import main

        assert main(["run", "e06"]) == 0
        out = capsys.readouterr().out
        assert "[E06]" in out
        assert "[E06] claims hold" in out
        assert "ran 1 experiment(s)" in out

    def test_list_subcommand(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "e22" in out

    def test_run_with_jobs(self, capsys):
        from repro.cli import main

        assert main(["run", "e02", "e04", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "[E02]" in out and "[E04]" in out

    def test_run_with_cache_second_invocation_executes_nothing(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "e02", "e04", "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "ran 2 experiment(s), 0 cache hit(s)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "ran 0 experiment(s), 2 cache hit(s)" in second
        assert "(cache)" in second
        assert "[E02] claims hold" in second and "[E04] claims hold" in second
        # tables themselves identical across the cached re-run
        def strip(s):
            return [
                line for line in s.splitlines()
                if not line.startswith("ran ") and "(" not in line
            ]

        assert strip(first) == strip(second)

    def test_false_claim_in_cached_rows_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["run", "e04", "e06", "--cache", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        (entry,) = tmp_path.glob("e04-*.json")
        payload = json.loads(entry.read_text())
        payload["rows"][1]["labels"] = 5  # Example 1's Q₃ labeling
        entry.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "ran 0 experiment(s), 2 cache hit(s)" in out
        assert "[E04] claims FAILED: Example 1 Q₃ (complement pairs): 5 labels" in out
        assert "[E06] claims hold" in out

    def test_clean_cache_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "e04", "--cache", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["clean-cache", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out
        assert list(tmp_path.glob("*.json")) == []

    def test_run_unknown_experiment(self):
        from repro.cli import main

        assert main(["run", "e99"]) == 2

    def test_bare_invocation_is_run(self, monkeypatch):
        from repro import cli

        calls = []
        monkeypatch.setattr(
            cli, "_cmd_run", lambda names, **kwargs: calls.append(names) or 0
        )
        assert cli.main([]) == 0
        assert calls == [[]]  # no names: every registered experiment

    @pytest.mark.parametrize(
        "argv",
        [["e06"], ["all"], ["--list"], ["--export-csv", "out"]],
        ids=["experiment-id", "all", "list-flag", "export-csv-flag"],
    )
    def test_legacy_spellings_are_usage_errors(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: repro" in capsys.readouterr().err


class TestCLIExport:
    def test_export_csv_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["export-csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "degree_series_k2.csv" in out
        assert (tmp_path / "asymptotic_ratio_k3.csv").exists()
