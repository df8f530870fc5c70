"""Corpus verification: digests, structure, and a re-validated sample.

``repro corpus verify`` answers two questions about a packed file:

* **Are the bytes intact?**  Every section's sha256 is recomputed over
  the mapped bytes and compared against the footer record (the reader
  has already rejected malformed headers/footers/bounds by the time we
  get here).
* **Are the schedules still true?**  A seeded sample of frames is
  sliced out and re-validated against the reference validator — the
  repo's oracle — on the group's own graph under the group's effective
  ``k`` bound.  The sample is deterministic in ``(corpus, seed)``, so
  CI reruns check the same slice.

The report is a value, not an exception: callers inspect ``ok`` and the
error strings.  The CLI raises :class:`CorpusIntegrityError` from a
failed report so the standard exit-2 error contract applies.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.corpus.format import GroupInfo
from repro.corpus.reader import CorpusReader
from repro.errors import format_cause
from repro.graphs.base import Graph
from repro.types import ReproError

__all__ = ["VerifyReport", "corpus_graph", "verify_corpus"]


@dataclass
class VerifyReport:
    """The outcome of one :func:`verify_corpus` run."""

    path: str
    n_frames: int
    n_groups: int
    sections_checked: int
    sampled: int
    revalidated: int
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_wire(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "ok": self.ok,
            "n_frames": self.n_frames,
            "n_groups": self.n_groups,
            "sections_checked": self.sections_checked,
            "sampled": self.sampled,
            "revalidated": self.revalidated,
            "errors": list(self.errors),
        }


def _group_for(groups: list[GroupInfo], fid: int) -> GroupInfo | None:
    los = [g.lo for g in groups]
    pos = bisect_right(los, fid) - 1
    if pos >= 0 and groups[pos].lo <= fid < groups[pos].hi:
        return groups[pos]
    return None


def corpus_graph(graph_spec: str, scheduler: str) -> Graph:
    """The graph a corpus group's frames live on: a ``scheme`` group's
    construction's, else the spec's (the process's one, from its spec
    memo)."""
    from repro.engine.cache import construction_for, graph_for

    if scheduler == "scheme":
        return construction_for(graph_spec).graph
    return graph_for(graph_spec)


def verify_corpus(
    path: str | Path,
    *,
    sample: int = 8,
    seed: int = 0,
    engine: str = "reference",
) -> VerifyReport:
    """Check digests and re-validate a seeded sample slice.

    Raises :class:`~repro.errors.CorpusFormatError` if the file is not
    a readable corpus at all; every *content* problem (bad digest,
    orphan frame, failed re-validation) lands in the report's errors.
    """
    from repro import api
    from repro.corpus import format as corpus_format

    with CorpusReader(path) as reader:
        report = VerifyReport(
            path=str(reader.path),
            n_frames=reader.n_frames,
            n_groups=len(reader.groups),
            sections_checked=0,
            sampled=0,
            revalidated=0,
        )
        for name in corpus_format.SECTION_NAMES:
            recorded = reader.section_meta(name)["sha256"]
            actual = reader.section_sha256(name)
            report.sections_checked += 1
            if actual != recorded:
                report.errors.append(
                    f"section {name!r} digest mismatch: footer records "
                    f"{recorded[:12]}…, bytes hash to {actual[:12]}…"
                )
        if report.errors:
            return report  # bytes are bad; re-validating them proves nothing

        groups = reader.groups
        covered = sum(g.n_frames for g in groups)
        if covered != reader.n_frames:
            report.errors.append(
                f"group index covers {covered} of {reader.n_frames} frames"
            )
        rng = random.Random(seed)
        n = min(sample, reader.n_frames)
        fids = sorted(rng.sample(range(reader.n_frames), n))
        report.sampled = len(fids)
        for fid in fids:
            group = _group_for(groups, fid)
            if group is None:
                report.errors.append(f"frame {fid} belongs to no group")
                continue
            try:
                graph = corpus_graph(group.graph, group.scheduler)
                frame = reader.frame_at(fid)
                k = (
                    group.k
                    if group.k is not None
                    else max(1, graph.n_vertices - 1)
                )
                verdict = api.validate(
                    graph, frame, k, engine=engine, require_minimum_time=True
                )
            except (ReproError, ValueError, KeyError) as exc:
                report.errors.append(
                    f"frame {fid} ({group.scheduler} on {group.graph}): "
                    f"{format_cause(exc)}"
                )
                continue
            if verdict.ok:
                report.revalidated += 1
            else:
                report.errors.append(
                    f"frame {fid} (source {frame.source}, {group.scheduler} "
                    f"on {group.graph}) failed re-validation: "
                    f"{'; '.join(verdict.errors) or 'not ok'}"
                )
        return report
