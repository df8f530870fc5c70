"""The project lint rules (RL001..RL011; RL009 is retired).

Each rule machine-checks one invariant the engine's correctness story
depends on.  Most are grounded in a real past bug (noted per rule); the
rest pin contracts that PR 4/PR 5 established by convention.  Rules are
deliberately import-resolved — ``np.random.rand`` only matches when the
file really imports NumPy as ``np`` — so a local variable that happens
to be called ``random`` never trips them.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devtools.analyzer import FileContext
from repro.devtools.registry import Finding, rule

__all__: list[str] = []

# -- shared helpers ---------------------------------------------------------

# random-module helpers that read or write the hidden module-global state;
# the class constructors (Random/SystemRandom) are handled separately.
_RANDOM_CLASSES = frozenset({"Random", "SystemRandom"})
_NUMPY_RNG_SAFE = frozenset({"Generator", "SeedSequence", "BitGenerator"})

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _calls(ctx: FileContext) -> Iterator[ast.Call]:
    for node in ctx.walk():
        if isinstance(node, ast.Call):
            yield node


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _is_const_true(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _direct_children(fn: ast.AST, *types: type) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested function/class
    scopes, yielding nodes of the requested types."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, types):
            yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _function_defs(ctx: FileContext) -> Iterator[ast.FunctionDef]:
    for node in ctx.walk():
        if isinstance(node, ast.FunctionDef):
            yield node


# -- RL001: module-global RNG ----------------------------------------------


@rule(
    "RL001",
    "no-global-rng",
    "no module-global RNG (random.*, np.random.*, unseeded Random()) "
    "outside tests",
)
def rl001_no_global_rng(ctx: FileContext) -> Iterable[Finding]:
    """Schedulers must thread explicit seeded generators.

    A PR-2 scheduler read module-global ``random`` and produced different
    schedules per process; every RNG must now be a seeded
    ``random.Random(seed)`` / ``np.random.default_rng(seed)`` instance.
    """
    if ctx.is_test_file:
        return
    for call in _calls(ctx):
        resolved = ctx.resolve(call.func)
        if resolved is None:
            continue
        if resolved.startswith("random."):
            attr = resolved.split(".", 1)[1]
            if attr in _RANDOM_CLASSES:
                if not call.args and not call.keywords:
                    yield (
                        call.lineno,
                        call.col_offset,
                        f"unseeded {resolved}() is nondeterministic; "
                        "pass an explicit seed",
                    )
            elif "." not in attr:
                yield (
                    call.lineno,
                    call.col_offset,
                    f"{resolved}() uses module-global RNG state; use a "
                    "seeded random.Random instance",
                )
        elif resolved.startswith("numpy.random."):
            attr = resolved.split(".", 2)[2]
            if attr in _NUMPY_RNG_SAFE:
                continue
            if attr in ("default_rng", "RandomState"):
                if not call.args and not call.keywords:
                    yield (
                        call.lineno,
                        call.col_offset,
                        f"unseeded {resolved}() is nondeterministic; "
                        "pass an explicit seed",
                    )
            else:
                yield (
                    call.lineno,
                    call.col_offset,
                    f"{resolved}() uses NumPy's module-global RNG; use "
                    "np.random.default_rng(seed)",
                )


# -- RL002: deterministic JSON ---------------------------------------------


@rule(
    "RL002",
    "json-sort-keys",
    "json.dump/json.dumps must pass sort_keys=True (artifact byte "
    "determinism)",
)
def rl002_json_sort_keys(ctx: FileContext) -> Iterable[Finding]:
    """Serialized dicts must not depend on insertion order.

    Sharded campaign merges are byte-compared against unsharded runs
    (PR 4's CI gate); an unsorted ``json.dumps`` makes that comparison
    depend on code paths, not data.  Deliberately pinned v1 writers are
    suppressed in place with a justification.
    """
    if ctx.is_test_file:
        return
    for call in _calls(ctx):
        resolved = ctx.resolve(call.func)
        if resolved not in ("json.dump", "json.dumps"):
            continue
        if not _is_const_true(_keyword(call, "sort_keys")):
            yield (
                call.lineno,
                call.col_offset,
                f"{resolved}() without sort_keys=True writes "
                "insertion-ordered JSON; pass sort_keys=True",
            )


# -- RL003: frozen-object mutation -----------------------------------------


@rule(
    "RL003",
    "no-frozen-mutation",
    "no object.__setattr__ on frozen schedule objects outside "
    "frame.py/types.py",
)
def rl003_no_frozen_mutation(ctx: FileContext) -> Iterable[Finding]:
    """Frozen ``ScheduleFrame`` objects are immutable.

    ``object.__setattr__`` on anything but ``self`` (the frozen-dataclass
    ``__post_init__`` idiom) bypasses that, so it is reserved for the
    schedule modules.  A ``Schedule`` needs no check of its own: its
    ``source`` and ``rounds`` are properties without setters, and
    ``rounds`` is a tuple.
    """
    if ctx.is_test_file or ctx.in_module("repro/frame.py", "repro/types.py"):
        return
    for node in ctx.walk():
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        ):
            first = node.args[0] if node.args else None
            if not (isinstance(first, ast.Name) and first.id == "self"):
                yield (
                    node.lineno,
                    node.col_offset,
                    "object.__setattr__ on a non-self target bypasses "
                    "frozen-object protection; build via "
                    "frame.ScheduleBuilder",
                )


# -- RL004: registry bypass -------------------------------------------------


# protected module prefix -> path fragment that owns it
_PROTECTED_IMPORTS = (
    ("repro.schedulers.", "repro/schedulers/"),
    ("repro.analysis.exp_", "repro/analysis/"),
    ("repro.analysis.scenarios", "repro/analysis/"),
)
# the sanctioned machine-readable surface, importable from anywhere
_IMPORT_EXEMPT = ("repro.schedulers.registry",)


@rule(
    "RL004",
    "registry-entry-points",
    "strategy/experiment/scenario modules are reached via their "
    "registries or package facade, not direct submodule imports",
)
def rl004_registry_entry_points(ctx: FileContext) -> Iterable[Finding]:
    """Cross-package reach-ins bypass registration-time validation.

    The registries attach parameter validation and provenance digests;
    importing ``repro.schedulers.greedy`` directly from analysis code
    skips both.  Call ``run_scheduler`` (exported by the
    ``repro.schedulers`` package) instead.
    """
    if ctx.is_test_file:
        return
    for node in ctx.walk():
        modules: list[tuple[str, int, int]] = []
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            modules.append((node.module, node.lineno, node.col_offset))
        elif isinstance(node, ast.Import):
            modules.extend(
                (alias.name, node.lineno, node.col_offset)
                for alias in node.names
            )
        for module, line, col in modules:
            if module in _IMPORT_EXEMPT:
                continue
            for prefix, owner in _PROTECTED_IMPORTS:
                if module.startswith(prefix) and not ctx.in_package(owner):
                    yield (
                        line,
                        col,
                        f"direct import of {module} outside {owner} "
                        "bypasses the registry; import the package "
                        "facade or go through the registry",
                    )


# -- RL005: pool task picklability ------------------------------------------


@rule(
    "RL005",
    "pool-task-picklable",
    "functions handed to WorkerPool.map/map_quarantine/submit or as a "
    "WorkerPool initializer must be module-level (picklable)",
)
def rl005_pool_task_picklable(ctx: FileContext) -> Iterable[Finding]:
    """A ``WorkerPool`` ships its task function and initializer to worker
    processes via pickle.

    Lambdas, nested functions, and bound methods fail to pickle — but
    only when ``--jobs > 1``, so the bug hides in serial test runs.
    """
    if ctx.is_test_file:
        return
    top_level_defs = {
        n.name
        for n in ctx.tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    all_defs = {
        n.name
        for n in ctx.walk()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    nested_defs = all_defs - top_level_defs
    for call in _calls(ctx):
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        if attr in ("map", "map_quarantine", "submit") and call.args:
            shipped, where = call.args[0], f"{attr}()"
        elif attr == "WorkerPool" or (
            isinstance(func, ast.Name) and func.id == "WorkerPool"
        ):
            shipped, where = _keyword(call, "initializer"), "WorkerPool(initializer=)"
        else:
            continue
        if isinstance(shipped, ast.Lambda):
            yield (
                shipped.lineno,
                shipped.col_offset,
                f"lambda passed to {where} is not picklable; use a "
                "module-level function",
            )
        elif isinstance(shipped, ast.Name) and shipped.id in nested_defs:
            yield (
                shipped.lineno,
                shipped.col_offset,
                f"nested function {shipped.id!r} passed to {where} is not "
                "picklable; move it to module level",
            )
        elif isinstance(shipped, ast.Attribute) and ctx.resolve(shipped) is None:
            yield (
                shipped.lineno,
                shipped.col_offset,
                f"bound method passed to {where} is not picklable; use a "
                "module-level function",
            )


# -- RL006: wall-clock reads ------------------------------------------------


@rule(
    "RL006",
    "no-wall-clock",
    "no time.time()/datetime.now() in result-producing code "
    "(time.perf_counter for durations is fine)",
)
def rl006_no_wall_clock(ctx: FileContext) -> Iterable[Finding]:
    """Absolute timestamps make artifacts differ across identical runs.

    Cache keys, rows, and manifests must be pure functions of their
    inputs; relative timing via ``time.perf_counter()`` is allowed
    because duration fields are normalized out of byte comparisons.
    """
    if ctx.is_test_file:
        return
    for call in _calls(ctx):
        resolved = ctx.resolve(call.func)
        if resolved in _WALL_CLOCK:
            yield (
                call.lineno,
                call.col_offset,
                f"{resolved}() reads the wall clock; artifacts must be "
                "pure functions of their inputs",
            )


# -- RL007: writeable arrays escaping public APIs ---------------------------


def _numpy_call(ctx: FileContext, node: ast.expr | None) -> bool:
    if not isinstance(node, ast.Call):
        return False
    resolved = ctx.resolve(node.func)
    return resolved is not None and resolved.startswith("numpy.")


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_array_attrs(ctx: FileContext) -> tuple[set[str], set[str]]:
    """(attrs assigned from NumPy constructors, attrs frozen in-file).

    One level of local tracking per function: ``x = np.zeros(...);
    self._buf = x`` marks ``_buf`` as an array attr, and an
    ``x.setflags(...)`` / ``self._buf.setflags(...)`` call (or assignment
    via ``_frozen_array``) marks it frozen.
    """
    array_attrs: set[str] = set()
    frozen_attrs: set[str] = set()
    for fn in _function_defs(ctx):
        numpy_locals: set[str] = set()
        frozen_locals: set[str] = set()
        for node in _direct_children(fn, ast.Assign, ast.Call):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "setflags":
                    target = func.value
                    if isinstance(target, ast.Name):
                        frozen_locals.add(target.id)
                    attr = _self_attr(target)
                    if attr is not None:
                        frozen_attrs.add(attr)
                continue
            pairs: list[tuple[ast.expr, ast.expr]] = []
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs.extend(zip(target.elts, node.value.elts))
                else:
                    pairs.append((target, node.value))
            for target, value in pairs:
                is_frozen_ctor = (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "_frozen_array"
                )
                attr = _self_attr(target)
                if attr is not None:
                    if is_frozen_ctor:
                        frozen_attrs.add(attr)
                    elif _numpy_call(ctx, value):
                        array_attrs.add(attr)
                    elif isinstance(value, ast.Name) and value.id in numpy_locals:
                        array_attrs.add(attr)
                        if value.id in frozen_locals:
                            frozen_attrs.add(attr)
                elif isinstance(target, ast.Name) and _numpy_call(ctx, value):
                    numpy_locals.add(target.id)
    return array_attrs, frozen_attrs


@rule(
    "RL007",
    "no-writeable-array-escape",
    "NumPy arrays stored on objects in engine/frame/graph code must "
    "not escape public APIs writeable",
)
def rl007_no_writeable_array_escape(ctx: FileContext) -> Iterable[Finding]:
    """A caller mutating a returned internal array corrupts every later
    read of the cache; frozen views (``setflags(write=False)``, the
    frame's ``_frozen_array``) or copies are required."""
    if ctx.is_test_file or not ctx.in_package(
        "repro/engine/", "repro/graphs/", "repro/frame.py"
    ):
        return
    array_attrs, frozen_attrs = _collect_array_attrs(ctx)
    unsafe = array_attrs - frozen_attrs
    if not unsafe:
        return
    for fn in _function_defs(ctx):
        if fn.name.startswith("_"):
            continue
        for ret in _direct_children(fn, ast.Return):
            value = ret.value
            elements = value.elts if isinstance(value, ast.Tuple) else [value]
            for element in elements:
                if element is None:
                    continue
                attr = _self_attr(element)
                if attr in unsafe:
                    yield (
                        ret.lineno,
                        ret.col_offset,
                        f"public {fn.name}() returns writeable internal "
                        f"array self.{attr}; return a copy or call "
                        "setflags(write=False)",
                    )


# -- RL008: unordered set iteration -----------------------------------------


def _is_set_expr(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


# builtins whose result does not depend on argument iteration order, so a
# set iterated inside them is harmless: sorted({...}) is the sanctioned fix
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "set", "frozenset", "min", "max", "sum", "any", "all", "len"}
)


def _order_insensitive_subtrees(ctx: FileContext) -> set[int]:
    """ids of nodes living inside sorted()/min()/... call arguments."""
    exempt: set[int] = set()
    for call in _calls(ctx):
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in _ORDER_INSENSITIVE_CALLS
        ):
            for arg in call.args:
                exempt.update(id(n) for n in ast.walk(arg))
    return exempt


@rule(
    "RL008",
    "no-unordered-set-iteration",
    "iterating a set into ordered output requires an explicit sorted()",
)
def rl008_no_unordered_set_iteration(ctx: FileContext) -> Iterable[Finding]:
    """Set iteration order is arbitrary (hash-seed dependent for str
    keys); anything feeding rows, schedules, or files must sort first.
    """
    if ctx.is_test_file:
        return
    exempt = _order_insensitive_subtrees(ctx)

    def check(iter_node: ast.expr, set_vars: set[str]) -> Iterator[Finding]:
        if id(iter_node) in exempt:
            return
        direct_set = _is_set_expr(iter_node) or (
            isinstance(iter_node, ast.Name) and iter_node.id in set_vars
        )
        if direct_set:
            yield (
                iter_node.lineno,
                iter_node.col_offset,
                "iteration over a set has arbitrary order; wrap in "
                "sorted()",
            )

    for fn in list(_function_defs(ctx)) + [ctx.tree]:
        set_vars = {
            t.id
            for node in _direct_children(fn, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Name) and _is_set_expr(node.value)
        }
        for node in _direct_children(
            fn, ast.For, ast.ListComp, ast.GeneratorExp, ast.DictComp
        ):
            iters = (
                [node.iter]
                if isinstance(node, ast.For)
                else [gen.iter for gen in node.generators]
            )
            for iter_node in iters:
                yield from check(iter_node, set_vars)
        for call in _direct_children(fn, ast.Call):
            if (
                id(call) not in exempt
                and isinstance(call.func, ast.Name)
                and call.func.id in ("list", "tuple")
                and len(call.args) == 1
                and _is_set_expr(call.args[0])
            ):
                yield (
                    call.lineno,
                    call.col_offset,
                    f"{call.func.id}() over a set has arbitrary order; "
                    "wrap the set in sorted()",
                )


# RL009 (shm-managed-registry) is retired with the shared-memory plane
# store it guarded; the ID is not reused.


# -- RL010: fault handling through the sanctioned boundaries -----------------

# The modules allowed to sleep and to catch broadly: the retry policy
# (every backoff is policy-driven and deterministic), the error
# taxonomy (capture/captured_call are the accounted catch-alls), and
# the chaos harness (injected delays are the point).
_RL010_BOUNDARIES = (
    "repro/util/retry.py",
    "repro/errors.py",
    "repro/devtools/chaos.py",
)


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    """Does this handler swallow every exception type?"""
    if handler.type is None:
        return True  # bare `except:`
    exprs = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(e, ast.Name) and e.id in ("Exception", "BaseException")
        for e in exprs
    )


@rule(
    "RL010",
    "fault-handling-boundaries",
    "no ad-hoc time.sleep or broad `except Exception` outside the "
    "retry/errors/chaos boundary modules",
)
def rl010_fault_handling_boundaries(ctx: FileContext) -> Iterable[Finding]:
    """Fault handling funnels through the PR-8 execution layer.

    Before the layer existed, transient faults were handled ad hoc:
    hand-rolled ``time.sleep`` retry loops (nondeterministic, unbounded)
    and bare ``except Exception`` blocks that silently swallowed worker
    crashes alongside real bugs (the pre-PR-8
    ``analysis/campaigns.py`` failure path).  Now every backoff is a
    :class:`repro.util.retry.RetryPolicy` decision and every broad
    catch goes through :func:`repro.errors.capture` /
    :func:`repro.errors.captured_call`, so swallowed exceptions are
    accounted for.  Genuinely unavoidable boundary catches elsewhere
    (e.g. optional-dependency probes) carry an inline suppression with
    a justification.
    """
    if ctx.is_test_file or ctx.in_module(*_RL010_BOUNDARIES):
        return
    for call in _calls(ctx):
        if ctx.resolve(call.func) == "time.sleep":
            yield (
                call.lineno,
                call.col_offset,
                "ad-hoc time.sleep; use repro.util.retry (RetryPolicy "
                "backoff / pause) so waits are policy-driven and "
                "deterministic",
            )
    for node in ctx.walk():
        if isinstance(node, ast.ExceptHandler) and _catches_broadly(node):
            yield (
                node.lineno,
                node.col_offset,
                "broad exception catch; route through repro.errors.capture/"
                "captured_call (or catch the specific exceptions) so "
                "swallowed failures are accounted for",
            )


# -- RL011: corpus binary access only inside repro/corpus/ -------------------

# The one package allowed to speak the repro-corpus/1 binary dialect.
_RL011_OWNER = "repro/corpus/"


@rule(
    "RL011",
    "corpus-format-containment",
    "raw struct/mmap/np.memmap corpus-file access only inside repro/corpus/",
)
def rl011_corpus_format_containment(ctx: FileContext) -> Iterable[Finding]:
    """The packed corpus layout has exactly one reader and one writer.

    ``repro-corpus/1`` is a versioned binary format with golden-pinned
    bytes; a second ad-hoc ``struct.unpack``/``mmap.mmap`` path over a
    corpus file would fork the layout knowledge and silently rot when
    the version bumps.  All byte-level access therefore lives in
    :mod:`repro.corpus` (``format.py`` owns the structs, ``reader.py``
    the mapping) — everyone else goes through
    :class:`~repro.corpus.reader.CorpusReader` and
    :class:`~repro.corpus.writer.CorpusWriter`.
    """
    if ctx.is_test_file or ctx.in_package(_RL011_OWNER):
        return
    for call in _calls(ctx):
        resolved = ctx.resolve(call.func)
        if resolved is None:
            continue
        if (
            resolved.startswith(("struct.", "mmap."))
            or resolved == "numpy.memmap"
        ):
            yield (
                call.lineno,
                call.col_offset,
                f"{resolved} outside repro/corpus/; binary corpus access "
                "goes through CorpusReader/CorpusWriter so the format "
                "knowledge stays in one versioned place",
            )
