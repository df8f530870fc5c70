"""Command-line experiment runner: ``python -m repro run --all``.

Subcommands (all backed by the experiment registry and the parallel
runner — see :mod:`repro.analysis.registry` / :mod:`repro.analysis.runner`):

``run``
    Execute experiments and print their tables, each followed by its
    claim verdict (``[E01] claims hold`` or ``[E01] claims FAILED: ...``,
    checked on cached rows too); exit 1 when any claim fails.  ``--all``
    selects every registered experiment, ``--jobs N`` fans out over N
    worker processes, ``--cache`` memoizes results as JSON under
    ``--cache-dir`` so a repeat invocation executes nothing.

``list``
    Show every registered experiment id and title.

``clean-cache``
    Delete the result cache.

``export-csv``
    Write the degree/asymptotic series as CSV files.

``schedule``
    Run one registered scheduler on a named graph family:
    ``repro schedule --graph hypercube:3 --scheduler search --k 2``.
    ``--list`` shows every scheduler in the registry
    (:mod:`repro.schedulers.registry`); results are validated through
    :func:`repro.api.validate` before being reported, and ``--out FILE``
    writes the found schedule as a self-contained columnar file
    (graph + v2 payload, :func:`repro.io.save_schedule`).

``validate``
    Machine-check a construction's broadcast scheme over many sources:
    ``repro validate --n 10 --m 3 --all-sources`` sweeps all ``2^n``
    sources through the batch engine (:mod:`repro.engine.batch`) —
    coset-translated generation, each row checked by the fast validator;
    the default samples 16 sources.  Alternatively
    ``repro validate --schedule FILE`` re-checks a schedule file written
    by ``repro schedule --out`` via :func:`repro.api.validate`
    (``--engine auto|reference|fast|batch``; ``batch`` is an alias of
    ``fast``).

``campaign``
    Declarative scenario sweeps (:mod:`repro.analysis.campaigns`):
    ``repro campaign list`` shows the built-in campaigns,
    ``repro campaign run SPEC --shard 0/2 --jobs 4`` executes one
    deterministic shard of a campaign grid into a JSONL chunk plus a
    provenance manifest, and ``repro campaign merge SPEC`` recombines
    the chunks into one artifact byte-identical to an unsharded run.
    ``SPEC`` is a built-in name or a path to a JSON campaign file.

``lint``
    Run the project's AST-based invariant rules
    (:mod:`repro.devtools`): ``repro lint src`` checks determinism and
    immutability contracts (RL001..RL011), ``--list`` shows the rules,
    ``--rule RL002 --format json`` narrows and machine-formats the
    report.  Exit 0 = clean, 1 = violations.

``serve``
    Run the long-lived schedule service (:mod:`repro.service`):
    ``repro serve --port 8571`` answers ``POST /v1/schedule``,
    ``POST /v1/validate``, ``POST /v1/certificate``, ``GET /v1/healthz``
    and ``GET /v1/stats`` over HTTP, amortizing the process-wide
    engine caches across requests; each validate request is one fast
    validator call on the worker pool.  ``--port 0`` picks an ephemeral port
    (printed on startup); SIGTERM/SIGINT drain in-flight requests and
    exit 0.  ``--corpus FILE`` consults a packed corpus before
    scheduling (byte-identical answers, O(1) instead of a scheduler
    run); ``--max-connections N`` sheds connections over the limit
    with ``503`` + ``Retry-After``, and ``--max-keepalive N`` caps
    requests per keep-alive connection.

``corpus``
    Build and use packed schedule corpora (:mod:`repro.corpus`):
    ``repro corpus build --out FILE --graph sparse:6:2`` packs one
    frame per source (coset-derived for the default ``scheme``
    scheduler, per-source ``api.schedule`` runs otherwise);
    ``repro corpus query FILE --graph ... --source V`` slices one
    frame out in O(1) (``--out`` writes a self-contained schedule
    file); ``repro corpus verify FILE`` recomputes the section digests
    and re-validates a seeded sample against the reference validator;
    ``repro corpus stats FILE`` prints the footer summary.

Failures exit 2 with a single stderr line carrying the stable
machine-readable error code from :mod:`repro.errors`, e.g.
``schedule failed [invalid-parameter]: ...`` — the same codes the
service returns in its HTTP error JSON.  Ctrl-C exits 130 with the one
line ``<command> interrupted``.

A bare ``python -m repro`` is ``repro run``: every experiment.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_table, registry
from repro.analysis.runner import DEFAULT_CACHE_DIR, ExperimentRunner
from repro.analysis.store import ResultStore


def _fail(verb: str, exc: BaseException) -> int:
    """The exit-2 contract: one stderr line ``<verb> failed [<code>]: <msg>``.

    The bracketed code is the stable machine-readable identifier from
    :func:`repro.errors.error_code` — identical to the ``code`` field
    the service puts in its HTTP error JSON, so scripts can match on it
    instead of on prose.
    """
    from repro.errors import error_code

    message: object = exc
    if isinstance(exc, KeyError) and exc.args:
        message = exc.args[0]  # registry lookups: unwrap the message string
    print(f"{verb} failed [{error_code(exc)}]: {message}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and tables (E01–E23).",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run experiments and print their tables")
    p_run.add_argument("experiments", nargs="*", help="experiment ids (e01..e23)")
    p_run.add_argument("--all", action="store_true", help="run every experiment")
    p_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = sequential)",
    )
    p_run.add_argument(
        "--cache", action="store_true",
        help="memoize results as JSON keyed on the parameter hash",
    )
    p_run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"cache location (default {DEFAULT_CACHE_DIR}); implies --cache",
    )
    p_run.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts after a worker crash/timeout "
        "(default 2; deterministic task errors are never retried)",
    )
    p_run.add_argument(
        "--task-timeout", type=float, default=None, metavar="SEC",
        help="per-experiment deadline in seconds, counted from its "
        "dispatch; a worker exceeding it is culled and the experiment "
        "retried (default: no deadline)",
    )

    sub.add_parser("list", help="list available experiments")

    p_clean = sub.add_parser("clean-cache", help="delete the result cache")
    p_clean.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR), metavar="DIR",
        help=f"cache location (default {DEFAULT_CACHE_DIR})",
    )

    p_csv = sub.add_parser("export-csv", help="write series CSVs and exit")
    p_csv.add_argument("dir", metavar="DIR", help="output directory")

    p_sched = sub.add_parser(
        "schedule", help="run a registered scheduler on a graph family"
    )
    p_sched.add_argument(
        "--graph", metavar="SPEC", default=None,
        help="graph spec, e.g. hypercube:3, theorem1:2, path:16, "
        "random-tree:24:7 (see --list for schedulers)",
    )
    p_sched.add_argument(
        "--scheduler", default="greedy", metavar="NAME",
        help="registry name (default greedy); see --list",
    )
    p_sched.add_argument("--source", type=int, default=0, metavar="V")
    p_sched.add_argument(
        "--k", type=int, default=None, metavar="K",
        help="call-length bound (default: unbounded)",
    )
    p_sched.add_argument(
        "--rounds", type=int, default=None, metavar="R",
        help="round budget (default: the minimum ⌈log₂N⌉)",
    )
    p_sched.add_argument("--seed", type=int, default=0, metavar="N")
    p_sched.add_argument(
        "--restarts", type=int, default=None, metavar="N",
        help="greedy restart budget",
    )
    p_sched.add_argument(
        "--n-messages", type=int, default=None, metavar="M",
        help="message count for multimsg_search",
    )
    p_sched.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the found schedule (graph + columnar v2 payload) to FILE",
    )
    p_sched.add_argument(
        "--list", action="store_true", help="list registered schedulers"
    )

    p_val = sub.add_parser(
        "validate",
        help="batch-validate a construction's broadcast scheme over many sources",
    )
    p_val.add_argument(
        "--n", type=int, default=None, metavar="N", help="hypercube dimension"
    )
    p_val.add_argument(
        "--schedule", default=None, metavar="FILE",
        help="validate a schedule file written by `repro schedule --out` "
        "instead of sweeping a construction",
    )
    p_val.add_argument(
        "--no-min-time", action="store_true",
        help="with --schedule: do not require the minimum ⌈log₂N⌉ rounds",
    )
    p_val.add_argument(
        "--m", type=int, default=None, metavar="M",
        help="Construct_BASE threshold n_1 (k = 2; default: the Theorem-5 m*)",
    )
    p_val.add_argument(
        "--k", type=int, default=None, metavar="K",
        help="construction k (requires --thresholds)",
    )
    p_val.add_argument(
        "--thresholds", default=None, metavar="N1,N2,...",
        help="comma-separated thresholds for Construct(k, n, ...)",
    )
    p_val.add_argument(
        "--all-sources", action="store_true",
        help="validate every one of the 2^n sources (default: a 16-source sample)",
    )
    p_val.add_argument(
        "--sources-cap", type=int, default=16, metavar="CAP",
        help="sample size when --all-sources is not given (default 16)",
    )
    p_val.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help="--schedule mode: auto (default) | reference | fast | batch (an "
        "alias of fast), the repro.api.validate engines (identical verdicts); "
        "sweeps always run the batch engine",
    )

    p_camp = sub.add_parser(
        "campaign",
        help="declarative scenario sweeps: sharded runs + deterministic merge",
    )
    camp_sub = p_camp.add_subparsers(dest="campaign_action")
    camp_sub.add_parser("list", help="list built-in campaigns")
    p_camp_run = camp_sub.add_parser("run", help="run one shard of a campaign grid")
    p_camp_run.add_argument(
        "spec", metavar="SPEC",
        help="built-in campaign name or path to a .json campaign file",
    )
    p_camp_run.add_argument(
        "--shard", default="0/1", metavar="I/M",
        help="deterministic shard to run (default 0/1 = the whole grid)",
    )
    p_camp_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = sequential)",
    )
    p_camp_run.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts after a worker crash/timeout "
        "(default 2; deterministic scenario errors are never retried)",
    )
    p_camp_run.add_argument(
        "--task-timeout", type=float, default=None, metavar="SEC",
        help="per-scenario deadline in seconds; a worker exceeding it "
        "is culled and the scenario retried (default: no deadline)",
    )
    p_camp_run.add_argument(
        "--out-dir", default="campaign-results", metavar="DIR",
        help="chunk/manifest/artifact directory (default campaign-results)",
    )
    p_camp_run.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR), metavar="DIR",
        help=f"scenario cache location (default {DEFAULT_CACHE_DIR})",
    )
    p_camp_run.add_argument(
        "--no-cache", action="store_true",
        help="always execute; do not read or write the scenario cache",
    )
    p_camp_merge = camp_sub.add_parser(
        "merge", help="merge shard chunks into the campaign artifact"
    )
    p_camp_merge.add_argument("spec", metavar="SPEC", help="campaign name or file")
    p_camp_merge.add_argument(
        "--out-dir", default="campaign-results", metavar="DIR",
        help="directory holding the shard chunks (default campaign-results)",
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the project's AST invariant rules (repro.devtools)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--rule", default=None, metavar="ID",
        help="run a single rule, e.g. --rule RL002",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    p_lint.add_argument("--list", action="store_true", help="list registered rules")

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived schedule service (HTTP, asyncio)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8571, metavar="PORT",
        help="TCP port (default 8571; 0 = ephemeral, printed on startup)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="compute worker processes for validate, certificate and "
        "scheduler requests (default 2; 1 computes on the event-loop thread)",
    )
    p_serve.add_argument(
        "--corpus", default=None, metavar="FILE",
        help="consult a packed schedule corpus before scheduling "
        "(see `repro corpus build`)",
    )
    p_serve.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help="shed connections beyond N with 503 + Retry-After "
        "(default: unlimited)",
    )
    p_serve.add_argument(
        "--max-keepalive", type=int, default=1000, metavar="N",
        help="requests served per keep-alive connection before the "
        "server closes it (default 1000)",
    )

    p_corpus = sub.add_parser(
        "corpus",
        help="build/query/verify packed schedule corpora (repro.corpus)",
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_action")
    p_cb = corpus_sub.add_parser(
        "build", help="generate one corpus group into a packed file"
    )
    p_cb.add_argument(
        "--out", required=True, metavar="FILE", help="corpus file to write"
    )
    p_cb.add_argument(
        "--graph", required=True, metavar="SPEC",
        help="graph spec (construction spec for the scheme scheduler, "
        "e.g. sparse:6:2)",
    )
    p_cb.add_argument(
        "--scheduler", default="scheme", metavar="NAME",
        help="'scheme' (default: coset-derived construction schedules) "
        "or any registry scheduler",
    )
    p_cb.add_argument(
        "--k", type=int, default=None, metavar="K",
        help="call-length bound recorded in the index key "
        "(default: unbounded)",
    )
    p_cb.add_argument("--seed", type=int, default=0, metavar="N")
    p_cb.add_argument(
        "--sources", default=None, metavar="V0,V1,...",
        help="comma-separated sources (default: every vertex)",
    )
    p_cq = corpus_sub.add_parser(
        "query", help="slice one frame out of a corpus in O(1)"
    )
    p_cq.add_argument("file", metavar="FILE", help="corpus file")
    p_cq.add_argument("--graph", required=True, metavar="SPEC")
    p_cq.add_argument("--scheduler", default="scheme", metavar="NAME")
    p_cq.add_argument("--source", type=int, required=True, metavar="V")
    p_cq.add_argument("--k", type=int, default=None, metavar="K")
    p_cq.add_argument("--seed", type=int, default=0, metavar="N")
    p_cq.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the frame as a self-contained schedule file "
        "(graph + columnar v2 payload)",
    )
    p_cv = corpus_sub.add_parser(
        "verify", help="check digests and re-validate a seeded sample"
    )
    p_cv.add_argument("file", metavar="FILE", help="corpus file")
    p_cv.add_argument(
        "--sample", type=int, default=8, metavar="N",
        help="frames to re-validate (default 8)",
    )
    p_cv.add_argument("--seed", type=int, default=0, metavar="N")
    p_cv.add_argument(
        "--engine", choices=("reference", "fast", "batch", "auto"),
        default="reference",
        help="validation engine for the sample (default reference — "
        "the oracle)",
    )
    p_cs = corpus_sub.add_parser("stats", help="print the footer summary")
    p_cs.add_argument("file", metavar="FILE", help="corpus file")
    return parser


def _cmd_list() -> int:
    for spec in registry.all_experiments():
        print(f"{spec.name}: {spec.title}")
    return 0


def _cmd_export_csv(directory: str) -> int:
    from repro.analysis.sweeps import export_all_series

    try:
        written = export_all_series(directory)
    except OSError as exc:  # e.g. DIR names an existing file
        return _fail("export-csv", exc)
    for fname, count in sorted(written.items()):
        print(f"wrote {fname}: {count} rows")
    return 0


def _cmd_clean_cache(cache_dir: str) -> int:
    removed = ResultStore(cache_dir).clean()
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro import api
    from repro.graphs.specs import spec_names
    from repro.schedulers import registry as sched_registry
    from repro.types import ReproError

    if args.list:
        for spec in sched_registry.all_schedulers():
            print(f"{spec.name}: {spec.title}")
        return 0
    if args.graph is None:
        print(
            "schedule needs --graph SPEC (or --list); known families: "
            + ", ".join(sorted(spec_names())),
            file=sys.stderr,
        )
        return 2
    params: dict = {}
    if args.restarts is not None:
        params["restarts"] = args.restarts
    if args.n_messages is not None:
        params["n_messages"] = args.n_messages
    try:
        graph = api.build_graph(args.graph)
        result = api.schedule(
            graph,
            args.scheduler,
            source=args.source,
            k=args.k,
            rounds=args.rounds,
            seed=args.seed,
            params=params,
        )
        if args.out is not None and result.frame is not None:
            from repro.io import save_schedule

            save_schedule(args.out, graph, result.frame, k=args.k)
    except (ReproError, OSError, KeyError) as exc:
        return _fail("schedule", exc)
    row = {
        "scheduler": result.scheduler,
        "graph": args.graph,
        "n": graph.n_vertices,
        "source": result.source,
        "k": args.k if args.k is not None else "inf",
        "found": result.found,
        "rounds": result.rounds if result.rounds is not None else "-",
        "calls": result.frame.n_calls if result.frame is not None else "-",
        "max_len": (
            result.frame.max_call_length() if result.frame is not None else "-"
        ),
        "valid": result.valid if result.valid is not None else "-",
        "seconds": f"{result.seconds:.3f}",
    }
    print(format_table([row], title=f"[SCHEDULE] {result.scheduler} on {args.graph}"))
    if args.out is not None and result.frame is not None:
        print(f"wrote {args.out}")
    return 0 if result.found and result.valid is not False else 1


def _cmd_validate_file(args: argparse.Namespace) -> int:
    """Validate one schedule file through the repro.api facade."""
    import time

    from repro import api
    from repro.io import load_schedule
    from repro.types import ReproError

    sweep_flags = [
        ("--n", args.n is not None),
        ("--m", args.m is not None),
        ("--thresholds", args.thresholds is not None),
        ("--all-sources", args.all_sources),
    ]
    conflicting = [flag for flag, given in sweep_flags if given]
    if conflicting:
        print(
            f"--schedule FILE cannot be combined with {conflicting[0]} "
            "(construction-sweep flags)",
            file=sys.stderr,
        )
        return 2
    engine = args.engine if args.engine is not None else "auto"
    try:
        graph, frame, k_file = load_schedule(args.schedule)
        k_eff = args.k if args.k is not None else k_file
        if k_eff is None:
            k_eff = max(1, graph.n_vertices - 1)  # unbounded call length
        t0 = time.perf_counter()
        report = api.validate(
            graph,
            frame,
            k_eff,
            engine=engine,
            require_minimum_time=not args.no_min_time,
        )
        seconds = time.perf_counter() - t0
    except (ReproError, OSError) as exc:
        return _fail("validate", exc)
    row = {
        "file": args.schedule,
        "N": graph.n_vertices,
        "source": frame.source,
        "rounds": frame.n_rounds,
        "calls": frame.n_calls,
        "max call len": frame.max_call_length(),
        f"valid (≤{k_eff})": report.ok,
        "engine": engine,
        "seconds": f"{seconds:.3f}",
    }
    print(format_table([row], title="[VALIDATE] schedule file"))
    for error in report.errors[:5]:
        print(f"error: {error}")
    if len(report.errors) > 5:
        print(f"... and {len(report.errors) - 5} more")
    return 0 if report.ok else 1


def _construction_spec(args: argparse.Namespace) -> str:
    """Map the validate flags onto one ``sparse:...`` construction spec.

    All parsing/validation of the construction itself lives in
    :func:`repro.api.construction`; this only translates flag spellings
    and preserves the historical ``--k``/``--thresholds`` cross-checks.
    """
    from repro.types import InvalidParameterError

    if args.thresholds is not None:
        if args.k is None:
            raise InvalidParameterError("--thresholds requires --k")
        parts = args.thresholds.split(",")
        if args.k != len(parts) + 1:
            raise InvalidParameterError(
                f"k={args.k} needs {args.k - 1} thresholds "
                f"(n_1..n_{{k-1}}), got {len(parts)}"
            )
        return f"sparse:{args.n}:" + ":".join(p.strip() for p in parts)
    if args.k is not None and args.k != 2:
        raise InvalidParameterError(
            f"--k {args.k} requires --thresholds (only the k=2 base "
            "construction can be built from --m alone)"
        )
    if args.m is not None:
        return f"sparse:{args.n}:{args.m}"
    return f"sparse:{args.n}"


def _cmd_validate(args: argparse.Namespace) -> int:
    import time

    from repro import api
    from repro.analysis.common import sample_sources
    from repro.engine.batch import validate_all_sources
    from repro.types import ReproError

    if args.schedule is not None:
        return _cmd_validate_file(args)
    if args.n is None:
        print(
            "validate needs --n N (construction sweep) or --schedule FILE",
            file=sys.stderr,
        )
        return 2
    if args.engine not in (None, "batch"):
        print(
            f"--engine {args.engine} is not a sweep engine: "
            "construction sweeps run only batch",
            file=sys.stderr,
        )
        return 2
    try:
        sh = api.construction(_construction_spec(args))
        srcs = (
            list(range(sh.n_vertices))
            if args.all_sources
            else sample_sources(sh.n_vertices, args.sources_cap)
        )
    except (ReproError, ValueError) as exc:
        return _fail("validate", exc)
    t0 = time.perf_counter()
    outcome = validate_all_sources(sh, k=sh.k, sources=srcs)
    seconds = time.perf_counter() - t0
    ok = outcome.all_ok and all(r == sh.n for r in outcome.rounds)
    row = {
        "construct": f"Construct({sh.k}, n={sh.n}, {sh.thresholds})",
        "N": sh.n_vertices,
        "Δ": sh.degree_formula(),
        "sources": len(srcs),
        "rounds": sh.n,
        "max call len": outcome.max_call_length,
        f"valid (≤{sh.k})": ok,
        "engine": f"batch ({outcome.n_cosets} cosets, {outcome.n_stacks} stacks)",
        "seconds": f"{seconds:.3f}",
    }
    print(format_table([row], title=f"[VALIDATE] Broadcast_{sh.k} source sweep"))
    return 0 if ok else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis import campaigns
    from repro.analysis.tables import campaign_summary
    from repro.types import ReproError

    if args.campaign_action is None:
        print(
            "campaign needs an action: list, run, or merge "
            "(e.g. `repro campaign run paper-grid --shard 0/2`)",
            file=sys.stderr,
        )
        return 2
    if args.campaign_action == "list":
        for name in campaigns.builtin_campaign_names():
            spec = campaigns.BUILTIN_CAMPAIGNS[name]
            print(f"{name}: {spec.title} ({spec.n_scenarios} scenarios)")
        return 0
    try:
        spec = campaigns.load_campaign(args.spec)
        if args.campaign_action == "run":
            shard = campaigns.parse_shard(args.shard)
            if args.jobs < 1:
                print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
                return 2
            chunk, manifest, rows = campaigns.run_campaign_shard(
                spec,
                shard=shard,
                out_dir=args.out_dir,
                jobs=args.jobs,
                cache_dir=None if args.no_cache else args.cache_dir,
                retry=_retry_from_args(args),
            )
            print(
                format_table(
                    campaign_summary(rows),
                    title=f"[CAMPAIGN] {spec.name} shard {shard[0]}/{shard[1]} "
                    f"({manifest['executed']} executed, "
                    f"{manifest['cache_hits']} cached, "
                    f"{manifest['seconds']:.2f}s)",
                )
            )
            print(f"chunk: {chunk}")
            if shard == (0, 1):
                print(f"artifact: {campaigns.artifact_path(args.out_dir, spec)}")
            return 0
        # merge
        target, rows = campaigns.merge_chunks(spec, args.out_dir)
        print(
            format_table(
                campaign_summary(rows),
                title=f"[CAMPAIGN] {spec.name} merged ({len(rows)} scenarios)",
            )
        )
        print(f"artifact: {target}")
        return 0
    except (ReproError, OSError) as exc:
        return _fail("campaign", exc)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import all_rules, lint_paths
    from repro.devtools.analyzer import format_text
    from repro.types import ReproError

    if args.list:
        for lint_rule in all_rules():
            print(
                f"{lint_rule.rule_id} [{lint_rule.severity}] "
                f"{lint_rule.name}: {lint_rule.summary}"
            )
        return 0
    try:
        report = lint_paths(args.paths, rule_id=args.rule)
    except (ReproError, OSError) as exc:
        return _fail("lint", exc)
    if args.format == "json":
        print(report.to_json())
    else:
        print(format_text(report))
    return 0 if report.ok else 1


def _retry_from_args(args: argparse.Namespace) -> "RetryPolicy | None":
    """The :class:`RetryPolicy` for ``--retries``/``--task-timeout``.

    ``None`` when neither knob is set, so callees use their defaults;
    bad values raise :class:`~repro.types.InvalidParameterError` (caught
    by each command's ReproError handler).
    """
    from repro.util.retry import RetryPolicy

    if args.retries is None and args.task_timeout is None:
        return None
    return RetryPolicy.from_knobs(
        retries=args.retries, task_timeout=args.task_timeout
    )


def _cmd_run(
    names: list[str],
    *,
    jobs: int,
    cache: bool,
    cache_dir: str,
    retry: "RetryPolicy | None" = None,
) -> int:
    known = registry.experiment_ids()
    if not names:
        names = known
    bad = [n for n in names if n.lower() not in known]
    if bad:
        print(f"unknown experiment {bad[0]!r}; use 'repro list'", file=sys.stderr)
        return 2
    if jobs < 1:
        print(f"--jobs must be >= 1, got {jobs}", file=sys.stderr)
        return 2
    from repro.types import ReproError

    runner = ExperimentRunner(
        jobs=jobs, cache_dir=cache_dir if cache else None, retry=retry
    )
    try:
        results = runner.run([n.lower() for n in names])
    except (ReproError, OSError) as exc:
        # execution-layer faults (exhausted retry budget, bad
        # REPRO_CHAOS spec, cache IO): one line, never a traceback
        return _fail("run", exc)
    for res in results:
        tag = f"[{res.name.upper()}]"
        origin = "cache" if res.cached else f"{res.seconds:.2f}s"
        print(format_table(res.rows, title=f"{tag} {res.title}  ({origin})"))
        if res.failed_claims:
            print(f"{tag} claims FAILED: {'; '.join(res.failed_claims)}")
        else:
            print(f"{tag} claims hold")
        print()
    stats = runner.stats
    print(
        f"ran {stats.executed} experiment(s), {stats.cache_hits} cache hit(s), "
        f"{stats.seconds:.2f}s total (jobs={jobs})"
    )
    return 1 if any(res.failed_claims for res in results) else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.types import ReproError

    try:
        from repro.service import serve_forever

        return serve_forever(
            host=args.host,
            port=args.port,
            workers=args.workers,
            corpus=args.corpus,
            max_connections=args.max_connections,
            max_keepalive=args.max_keepalive,
        )
    except (ReproError, OSError) as exc:
        return _fail("serve", exc)


def _corpus_graph(graph_spec: str, scheduler: str) -> "Graph":
    """The graph a corpus group's frames live on (spec-kind aware)."""
    from repro import api

    if scheduler == "scheme":
        return api.construction(graph_spec).graph
    return api.build_graph(graph_spec)


def _cmd_corpus(args: argparse.Namespace) -> int:
    import json

    from repro.types import ReproError

    if args.corpus_action is None:
        print(
            "corpus needs an action: build, query, verify, or stats "
            "(e.g. `repro corpus build --out F.corpus --graph sparse:6:2`)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.corpus_action == "build":
            from repro.corpus import build_corpus

            sources = None
            if args.sources is not None:
                sources = [int(s) for s in args.sources.split(",") if s.strip()]
            n = build_corpus(
                args.out,
                args.graph,
                args.scheduler,
                k=args.k,
                seed=args.seed,
                sources=sources,
            )
            print(f"wrote {args.out}: {n} frames ({args.scheduler} on {args.graph})")
            return 0
        if args.corpus_action == "query":
            from repro.corpus import CorpusReader

            with CorpusReader(args.file) as reader:
                frame = reader.get(
                    args.graph,
                    args.scheduler,
                    args.source,
                    k=args.k,
                    seed=args.seed,
                )
                if args.out is not None:
                    from repro.io import save_schedule

                    graph = _corpus_graph(args.graph, args.scheduler)
                    save_schedule(args.out, graph, frame, k=args.k)
            row = {
                "corpus": args.file,
                "graph": args.graph,
                "scheduler": args.scheduler,
                "source": frame.source,
                "k": args.k if args.k is not None else "inf",
                "rounds": frame.n_rounds,
                "calls": frame.n_calls,
                "max_len": frame.max_call_length(),
            }
            print(format_table([row], title=f"[CORPUS] query {args.graph}"))
            if args.out is not None:
                print(f"wrote {args.out}")
            return 0
        if args.corpus_action == "verify":
            from repro.corpus import verify_corpus
            from repro.errors import CorpusIntegrityError

            report = verify_corpus(
                args.file, sample=args.sample, seed=args.seed, engine=args.engine
            )
            print(json.dumps(report.to_wire(), indent=2, sort_keys=True))
            if not report.ok:
                raise CorpusIntegrityError(
                    f"{args.file}: {report.errors[0]}"
                    + (
                        f" (+{len(report.errors) - 1} more)"
                        if len(report.errors) > 1
                        else ""
                    )
                )
            return 0
        # stats
        from repro.corpus import CorpusReader

        with CorpusReader(args.file) as reader:
            print(json.dumps(reader.stats(), indent=2, sort_keys=True))
        return 0
    except (ReproError, OSError, ValueError) as exc:
        return _fail("corpus", exc)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv or ["run"])
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        # Ctrl-C: the pools' context exits have already stopped their
        # workers, so one line replaces the traceback
        print(f"{args.command} interrupted", file=sys.stderr)
        return 130


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "export-csv":
        return _cmd_export_csv(args.dir)
    if args.command == "clean-cache":
        return _cmd_clean_cache(args.cache_dir)
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    # "run"
    names = list(args.experiments)
    if args.all:
        names = []
    cache = args.cache or args.cache_dir is not None  # --cache-dir implies --cache
    cache_dir = str(DEFAULT_CACHE_DIR) if args.cache_dir is None else args.cache_dir
    from repro.types import ReproError

    try:
        retry = _retry_from_args(args)
    except ReproError as exc:
        return _fail("run", exc)
    return _cmd_run(
        names,
        jobs=args.jobs,
        cache=cache,
        cache_dir=cache_dir,
        retry=retry,
    )


if __name__ == "__main__":
    raise SystemExit(main())
