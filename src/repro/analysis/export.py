"""CSV export of figure data.

Every experiment result renders as rows in the benchmark output; this
module writes the same rows to CSV so figures can be re-plotted with any
tool.  Used by the CLI's ``--csv DIR`` flag.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence, Union


def write_csv(
    path: Union[str, Path],
    headers: Sequence[str],
    rows: Iterable[Sequence],
) -> Path:
    """Write ``headers`` + ``rows`` to ``path`` (parents created).

    Returns the resolved path.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))
    return out
