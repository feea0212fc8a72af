"""Result export: CSV files for downstream plotting.

The paper's artifact emits parsed result files that its plots are built
from; this module provides the equivalent: any list of dataclass or dict
rows (an assembled figure's ``raw_rows`` are dicts) can be written to CSV
with one call, and a whole experiment sweep can be dumped into a directory.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path
from typing import Iterable, Sequence


def rows_to_dicts(rows: Sequence[object]) -> list[dict]:
    """Convert dataclass instances (or dicts) to plain dicts."""
    out: list[dict] = []
    for row in rows:
        if dataclasses.is_dataclass(row) and not isinstance(row, type):
            out.append(dataclasses.asdict(row))
        elif isinstance(row, dict):
            out.append(dict(row))
        else:
            raise TypeError(
                f"cannot export row of type {type(row).__name__}; "
                "expected a dataclass instance or dict"
            )
    return out


def write_csv(rows: Sequence[object], path: str | Path) -> Path:
    """Write experiment *rows* to *path* as CSV; returns the path written.

    Column order follows the first row's field order.  Non-scalar values
    (lists, tuples) are serialized with ';' separators so the file stays
    one-row-per-record.
    """
    dicts = rows_to_dicts(rows)
    if not dicts:
        raise ValueError("no rows to export")
    path = Path(path)
    if path.suffix != ".csv":
        path = path.with_suffix(path.suffix + ".csv")
    path.parent.mkdir(parents=True, exist_ok=True)

    fieldnames = list(dicts[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in dicts:
            writer.writerow({k: _serialize(v) for k, v in record.items()})
    return path


def _serialize(value: object) -> object:
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value


def export_experiment(
    name: str, rows: Iterable[object], out_dir: str | Path = "results"
) -> Path:
    """Write one experiment's rows to ``<out_dir>/<name>.csv``."""
    return write_csv(list(rows), Path(out_dir) / name)


def write_json(payload: object, path: str | Path) -> Path:
    """Write a JSON result document (benchmark reports, harness summaries).

    The companion to :func:`write_csv` for results that are not flat
    tables — nested timing reports, per-figure failure summaries.  Keys
    are written sorted so diffs between runs stay readable.
    """
    import json

    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(path.suffix + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
