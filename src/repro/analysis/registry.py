"""Declarative experiment registry.

Every experiment function registers itself with the :func:`experiment`
decorator, declaring its id (``e01`` … ``e23``), a one-line title and
its claim check: ``claims(rows, params)`` returns the messages of the
paper's claims that ``rows`` (computed with effective ``params``) fail,
so an empty list means every claim holds.  The registry is the single
source of truth consumed by the CLI (``repro run`` / ``repro list``),
the parallel runner (:mod:`repro.analysis.runner`, which checks every
result's claims), the claims test and the experiments benchmark.

Experiments keep their keyword-only parameters; the registry introspects
the defaults so a run can be cached under a hash of the *effective*
parameters (defaults merged with overrides).
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import store
from repro.types import InvalidParameterError

__all__ = [
    "ExperimentSpec",
    "experiment",
    "get_experiment",
    "experiment_ids",
    "all_experiments",
    "default_params",
    "effective_params",
    "jsonable",
    "source_digest",
    "code_digest",
    "params_digest",
    "run_experiment",
    "load_all",
]


Claims = Callable[[list[dict], dict], list[str]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, title, callable, claims, module."""

    name: str
    title: str
    fn: Callable[..., list[dict]]
    claims: Claims
    module: str = field(default="")

    def __call__(self, **params) -> list[dict]:
        return self.fn(**params)


_REGISTRY: dict[str, ExperimentSpec] = {}


def experiment(name: str, title: str, *, claims: Claims) -> Callable:
    """Register ``fn`` under experiment id ``name``, with its claim check.

    Ids are lowercase (``e01``).  Double registration of the same id is a
    programming error and raises immediately.
    """

    def decorate(fn: Callable[..., list[dict]]) -> Callable[..., list[dict]]:
        key = name.lower()
        if key in _REGISTRY:
            raise InvalidParameterError(
                f"experiment id {key!r} registered twice "
                f"({_REGISTRY[key].fn.__module__} and {fn.__module__})"
            )
        _REGISTRY[key] = ExperimentSpec(
            name=key, title=title, fn=fn, claims=claims, module=fn.__module__
        )
        return fn

    return decorate


def load_all() -> None:
    """Import every themed experiment module (idempotent).

    Registration happens at import time; anything that wants the full
    registry (CLI, runner, tests) calls this first.
    """
    from repro.analysis import (  # noqa: F401
        exp_constructions,
        exp_extensions,
        exp_foundations,
        exp_schedulers,
        exp_theorems,
    )


def experiment_ids() -> list[str]:
    """All registered ids in sorted (= numeric) order."""
    load_all()
    return sorted(_REGISTRY)


def all_experiments() -> list[ExperimentSpec]:
    load_all()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_experiment(name: str) -> ExperimentSpec:
    load_all()
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def default_params(spec: ExperimentSpec) -> dict:
    """The experiment's keyword defaults, introspected from its signature."""
    out = {}
    for pname, p in inspect.signature(spec.fn).parameters.items():
        if p.default is not inspect.Parameter.empty:
            out[pname] = p.default
    return out


def effective_params(spec: ExperimentSpec, overrides: dict | None = None) -> dict:
    """Defaults merged with ``overrides`` (unknown keys rejected)."""
    params = default_params(spec)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise InvalidParameterError(
                f"experiment {spec.name!r} has no parameter {key!r} "
                f"(known: {', '.join(params) or 'none'})"
            )
        params[key] = value
    return params


def jsonable(value):
    """Canonical JSON-encodable form of a parameter value.

    Tuples become lists; sets are sorted by their JSON encoding so the
    digest is independent of iteration (hash-seed) order.
    """
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(
            (jsonable(v) for v in value),
            key=lambda v: json.dumps(v, sort_keys=True),
        )
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def source_digest(obj, fallback: str) -> str:
    """Short hash of ``obj``'s source text (function or module).

    The one digest idiom shared by every code-version cache key — the
    experiment runner (:func:`code_digest`) and the campaign scenario
    cache (``campaigns.scenarios_code_digest``) — so invalidation
    semantics cannot silently diverge.  ``fallback`` is hashed instead
    when the source is unavailable (REPL, frozen builds) — weaker, but
    never wrong for on-disk modules.
    """
    try:
        source = inspect.getsource(obj)
    except (OSError, TypeError):
        source = fallback
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def code_digest(spec: ExperimentSpec) -> str:
    """Short hash of the experiment function's source text.

    Folded into the cache key so editing an experiment's *body* (not just
    its parameters) invalidates stale cache entries instead of silently
    serving rows computed by the old code.
    """
    return source_digest(spec.fn, f"{spec.fn.__module__}.{spec.fn.__qualname__}")


def params_digest(name: str, params: dict, *, code: str = "") -> str:
    """Stable short hash of (experiment id, effective params, code
    version) — the runner's cache key.  ``code`` is the
    :func:`code_digest` of the experiment (empty = ignore code version,
    the pre-PR-4 behaviour)."""
    return store.digest({"experiment": name, "params": jsonable(params), "code": code})


def run_experiment(name: str, overrides: dict | None = None) -> list[dict]:
    """Run one experiment by id with optional parameter overrides."""
    spec = get_experiment(name)
    params = effective_params(spec, overrides)
    return spec.fn(**params)
