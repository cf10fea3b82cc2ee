"""The one writer for every CSV and JSON file the command line produces.

CSV files have LF line endings, one header row and ``%.17g`` values, which
read back bit for bit.  JSON files are indented, key-sorted and end with
a newline; they never hold NaN or infinity, which JSON cannot express.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import NumericalContractError


def write_csv(path, header, columns) -> None:
    """One column per header name, one row per entry of the columns."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_json(path, obj) -> None:
    """Indented, key-sorted JSON; a non-finite number raises NumericalContractError."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalContractError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
