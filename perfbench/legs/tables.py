"""The paper's tables and figures built from a lint run, as one text.

Shared by the batch legs: the text is what the output checks compare
byte for byte across executors and against the reference path.
"""

from __future__ import annotations


def build(analysis, corpus, reports) -> dict:
    """Table 1, top lints and the Figure 2-4 series, via ``analysis``.

    ``analysis`` is the ``repro.analysis`` module (or a traced view of
    it), so a traced run times exactly these calls.
    """
    return {
        "table1": analysis.build_table1(corpus, reports),
        "top": analysis.top_lints(reports, count=25),
        "fig2": analysis.issuance_trend(corpus, reports),
        "fig3": analysis.validity_cdfs(corpus, reports),
        "fig4": analysis.field_matrix(corpus, reports),
    }


def render(summary_json: str, tables: dict) -> str:
    """Canonical text of a run's summary and tables."""
    from repro.analysis import render_cdf, render_trend

    table1 = tables["table1"]
    lines = [summary_json]
    lines.append(f"nc={table1.nc_certs} rate={table1.nc_rate!r} trusted={table1.trusted_share!r}")
    for nc_type, row in sorted(table1.rows.items(), key=lambda kv: kv[0].value):
        lines.append(f"{nc_type.value} {row.nc_certs}")
    lines.extend(f"{count} {name}" for name, count in tables["top"])
    lines.extend(render_trend(tables["fig2"]))
    lines.extend(render_cdf(tables["fig3"]))
    matrix = tables["fig4"]
    lines.append(" ".join(matrix.issuers))
    for key in sorted(matrix.cells, key=repr):
        cell = matrix.cells[key]
        lines.append(f"{key!r} {cell.unicode_count} {cell.deviating_count}")
    return "\n".join(lines)
