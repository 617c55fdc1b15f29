"""File formats: states, extensions, Kraus families, CSV sweeps.

Everything is JSON with complex entries spelled as [re, im] pairs, row-major.
States are tiny, so readability and diffability beat compactness.
"""

from __future__ import annotations

import csv
import json
import sys
from typing import IO, Iterable

import numpy as np

from .channels import Channel
from .errors import SymextError
from .states import BipartiteState, TripartiteExtension


class FileFormatError(SymextError):
    """Raised with a path-anchored message when a file cannot be read, parsed or written."""


def _entry_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m: np.ndarray) -> list:
    return [[_entry_to_pair(z) for z in row] for row in np.asarray(m)]


def matrix_from_json(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data or not isinstance(data[0], list):
        raise FileFormatError(f"{where}: expected a non-empty list of rows")
    n = len(data)
    out = np.zeros((n, len(data[0])), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != out.shape[1]:
            raise FileFormatError(f"{where}[{i}]: ragged row")
        for j, pair in enumerate(row):
            # bool is an int subclass; NaN, Infinity and huge ints fail the bound
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in pair)):
                raise FileFormatError(f"{where}[{i}][{j}]: expected [re, im] of finite numbers")
            out[i, j] = complex(pair[0], pair[1])
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return data


def load_state(path: str) -> BipartiteState:
    data = _load_json(path)
    dims = data.get("dims")
    if not (isinstance(dims, list) and len(dims) == 2 and all(type(d) is int for d in dims)):
        raise FileFormatError(f"{path}: 'dims' must be two integers for a bipartite state")
    matrix = matrix_from_json(data.get("matrix"), f"{path}: matrix")
    try:
        return BipartiteState(matrix, dims[0], dims[1])
    except SymextError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_extension(path: str, target: BipartiteState) -> TripartiteExtension:
    data = _load_json(path)
    dims = data.get("dims")
    if not (isinstance(dims, list) and len(dims) == 3 and all(type(d) is int for d in dims)):
        raise FileFormatError(f"{path}: 'dims' must be three integers for an extension")
    if dims[1] != dims[2]:
        raise FileFormatError(f"{path}: extension needs d_B = d_B', got {dims[1]} and {dims[2]}")
    matrix = matrix_from_json(data.get("matrix"), f"{path}: matrix")
    try:
        return TripartiteExtension(matrix, dims[0], dims[1], target.matrix)
    except SymextError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_channel(path: str) -> Channel:
    data = _load_json(path)
    d_in, d_out = data.get("d_in"), data.get("d_out")
    if type(d_in) is not int or type(d_out) is not int:
        raise FileFormatError(f"{path}: 'd_in' and 'd_out' must be integers")
    kraus_data = data.get("kraus")
    if not isinstance(kraus_data, list) or not kraus_data:
        raise FileFormatError(f"{path}: 'kraus' must be a non-empty list")
    kraus = tuple(matrix_from_json(k, f"{path}: kraus[{i}]") for i, k in enumerate(kraus_data))
    try:
        return Channel(kraus, d_in=d_in, d_out=d_out)
    except SymextError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def state_payload(rho: BipartiteState) -> dict:
    return {"dims": [rho.d_a, rho.d_b], "matrix": matrix_to_json(rho.matrix)}


def extension_payload(sigma: TripartiteExtension) -> dict:
    return {"dims": [sigma.d_a, sigma.d_b, sigma.d_b], "matrix": matrix_to_json(sigma.matrix)}


def channel_payload(channel: Channel) -> dict:
    return {"d_in": channel.d_in, "d_out": channel.d_out,
            "kraus": [matrix_to_json(k) for k in channel.kraus]}


def open_output(path: str) -> IO[str]:
    """Open ``path`` for writing; an unwritable path raises FileFormatError."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_json(path: str, payload: dict) -> None:
    with open_output(path) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def save_state(path: str, rho: BipartiteState) -> None:
    write_json(path, state_payload(rho))


def save_extension(path: str, sigma: TripartiteExtension) -> None:
    write_json(path, extension_payload(sigma))


def save_channel(path: str, channel: Channel) -> None:
    write_json(path, channel_payload(channel))


def format_real(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(stream: IO[str], header: list[str], rows: Iterable[Iterable]) -> None:
    """Deterministic CSV: fixed column order, full-precision reals."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_real(v) if isinstance(v, float) else str(v) for v in row])
