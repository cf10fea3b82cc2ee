"""The one writer for every CSV and JSON file the command line produces.

CSV files have LF line endings, one header row and ``%.17g`` values, which
read back bit for bit.  JSON files are indented, key-sorted and end with
a newline; they never hold NaN or infinity, which JSON cannot express.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import NumericalContractError


# values formatted by one %: enough to amortize the call, few enough to keep its temporaries small
_CSV_CHUNK = 4096


def write_csv(path, header, columns) -> None:
    """One column per header name, one row per entry of the columns.

    The table is formatted a block of rows at a time (about _CSV_CHUNK
    values), each by one % over the row template repeated once per row:
    the bytes of np.savetxt(fmt="%.17g", delimiter=","), without its
    loop over numpy scalars row by row.
    """
    table = np.column_stack(columns)
    rows = max(1, _CSV_CHUNK // table.shape[1])
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("latin-1"))
        for i in range(0, len(table), rows):
            part = table[i : i + rows]
            fh.write(((template * len(part)) % tuple(part.ravel().tolist())).encode("latin-1"))


def write_json(path, obj) -> None:
    """Indented, key-sorted JSON; a non-finite number raises NumericalContractError."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalContractError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
