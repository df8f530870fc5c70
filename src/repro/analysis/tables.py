"""Plain-text table rendering for experiment output.

No dependencies; produces aligned monospace tables from ``list[dict]``
rows: the tables ``python -m repro run`` prints for the experiments that
``python -m repro list`` names.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["format_table", "print_table", "campaign_summary"]


def format_table(
    rows: Iterable[Mapping[str, object]],
    *,
    columns: list[str] | None = None,
    title: str | None = None,
) -> str:
    """Render rows as an aligned text table.

    Column order: explicit ``columns`` if given, else insertion order of
    the first row.  Values are str()-ed; floats get 4 significant digits.
    """
    rows = list(rows)
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    cols = columns if columns is not None else list(rows[0].keys())

    def fmt(v: object) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

    table = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append(sep)
    for row in table:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def campaign_summary(rows: Iterable[Mapping[str, object]]) -> list[dict]:
    """Compress campaign scenario rows into one summary row per
    (scheduler, condition) group.

    The shape printed after ``repro campaign run``/``merge``: scenario
    and source-run counts, found/valid/error totals, and the observed
    round-count range, aggregated over the graph and k axes.
    """
    groups: dict[tuple, dict] = {}
    for row in rows:
        key = (str(row.get("scheduler")), str(row.get("condition")))
        agg = groups.get(key)
        if agg is None:
            agg = groups[key] = {
                "scheduler": key[0],
                "condition": key[1],
                "scenarios": 0,
                "graphs": set(),
                "sources": 0,
                "found": 0,
                "valid": 0,
                "errors": 0,
                "rounds_min": None,
                "rounds_max": None,
            }
        agg["scenarios"] += 1
        agg["graphs"].add(str(row.get("graph")))
        agg["sources"] += int(row.get("n_sources", 0))
        agg["found"] += int(row.get("found", 0))
        agg["valid"] += int(row.get("valid", 0))
        agg["errors"] += int(row.get("errors", 0))
        rmin, rmax = row.get("rounds_min", -1), row.get("rounds_max", -1)
        if isinstance(rmin, int) and rmin >= 0:
            agg["rounds_min"] = (
                rmin if agg["rounds_min"] is None else min(agg["rounds_min"], rmin)
            )
        if isinstance(rmax, int) and rmax >= 0:
            agg["rounds_max"] = (
                rmax if agg["rounds_max"] is None else max(agg["rounds_max"], rmax)
            )
    out = []
    for key in sorted(groups):
        agg = groups[key]
        rounds = (
            "-"
            if agg["rounds_min"] is None
            else f"{agg['rounds_min']}..{agg['rounds_max']}"
        )
        out.append(
            {
                "scheduler": agg["scheduler"],
                "condition": agg["condition"],
                "scenarios": agg["scenarios"],
                "graphs": len(agg["graphs"]),
                "sources": agg["sources"],
                "found": agg["found"],
                "valid": agg["valid"],
                "errors": agg["errors"],
                "rounds": rounds,
            }
        )
    return out


def print_table(
    rows: Iterable[Mapping[str, object]],
    *,
    columns: list[str] | None = None,
    title: str | None = None,
) -> None:
    print(format_table(rows, columns=columns, title=title))
