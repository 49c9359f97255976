"""Dataset ingestion, vertical partitioning, and seeded synthetic data.

Datasets are plain CSV with a header row. A partition spec is a small JSON
document naming which client owns which feature columns and who holds the
label column:

    {
      "clients": [
        {"name": "alpha", "features": ["x0", "x1"]},
        {"name": "beta", "features": ["x2"]}
      ],
      "label": {"client": "alpha", "column": "y"}
    }

Feature columns must be disjoint across clients and together cover every
non-label column, so the vertical split is total and unambiguous.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .baseline import MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR, CentralDataset
from .draws import seeded, uniform_ints
from .protocol import ClientShard


@dataclass(frozen=True)
class ClientSpec:
    name: str
    feature_columns: tuple[str, ...]


@dataclass(frozen=True)
class PartitionSpec:
    clients: tuple[ClientSpec, ...]
    label_client: str
    label_column: str


def load_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a headered numeric CSV into (column names, row matrix).

    The body is parsed by numpy's C reader straight from the open file:
    cells are ASCII decimal, ``inf`` or ``nan`` spellings, optionally
    quoted with ``"``; blank lines are skipped. Each value is bitwise the
    ``float`` of its cell, as numpy parses through the same routine.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file, expected a header row") from None
            if len(set(header)) != len(header):
                raise ValueError(f"{path}: duplicate column names in header {header}")
            try:
                rows = _loadtxt(fh, quotechar='"', ndmin=2)
            except ValueError as err:
                problem = _first_bad_cell(path, header) or " ".join(str(err).split())
                raise ValueError(f"{path}: {problem}") from None
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {_undecodable_byte(path, err)}") from None
    if len(rows) == 0:
        raise ValueError(f"{path}: no data rows")
    if rows.shape[1] != len(header):
        problem = (_first_bad_cell(path, header)
                   or f"rows have {rows.shape[1]} cells, expected {len(header)}")
        raise ValueError(f"{path}: {problem}")
    return header, rows


def _undecodable_byte(path, err: UnicodeDecodeError) -> str:
    """err's message with the file line of the byte in place of its position.

    The position counts from the start of the text layer's read chunk, so
    the whole file is decoded again to find the byte's file offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode(err.encoding)
    except UnicodeDecodeError as whole:
        err = whole
    # The byte is no line break, so it ends the last of the lines up to it;
    # splitlines ends lines at LF, CRLF and CR, as the reader does.
    line = len(raw[:err.start + 1].splitlines())
    return (f"line {line}: {err.encoding!r} codec can't decode byte "
            f"0x{raw[err.start]:02x}: {err.reason}")


def _loadtxt(lines, **kwargs) -> np.ndarray:
    """np.loadtxt of comma-separated floats; callers report empty input, numpy does not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, **kwargs)


def _c_reader_accepts(line: str, width: int) -> bool:
    """Whether numpy's C reader parses one unquoted line as exactly width floats."""
    try:
        return _loadtxt([line], quotechar=None).size == width
    except ValueError:
        return False


def _first_bad_cell(path, header: Sequence[str]) -> str | None:
    """Rescan a refused body; name the file line of its first bad row or cell.

    Cells are judged by the C reader's rule (which refuses ``1_000``), cell
    by cell only within a record it refuses. None if no cell is refused.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for record in reader:
            if not record:
                continue
            if len(record) != len(header):
                return (f"row at line {reader.line_num} has {len(record)} cells, "
                        f"expected {len(header)}")
            if _c_reader_accepts(",".join(record), len(header)):
                continue
            for name, cell in zip(header, record):
                if not _c_reader_accepts(cell, 1):
                    return (f"line {reader.line_num}, column {name!r}: "
                            f"non-numeric cell {cell!r}")
    return None


def write_csv(path, header: Sequence[str], rows: np.ndarray) -> None:
    """Write a numeric matrix under the given header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.asarray(rows):
            writer.writerow([repr(float(v)) for v in row])


def load_partition_spec(path) -> PartitionSpec:
    """Parse and structurally validate a partition spec document.

    Client names and label fields must be strings and each client's
    features a list of strings; a string is not split into columns.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"{path}: {err}") from None
    try:
        clients = [(c["name"], c["features"]) for c in doc["clients"]]
        label_client = doc["label"]["client"]
        label_column = doc["label"]["column"]
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path}: malformed partition spec ({err})") from None
    for name, features in clients:
        if not (isinstance(name, str) and isinstance(features, list)
                and all(isinstance(f, str) for f in features)):
            raise ValueError(
                f"{path}: malformed partition spec (client {name!r} needs a "
                f"string name and a list of string features, got {features!r})"
            )
    if not (isinstance(label_client, str) and isinstance(label_column, str)):
        raise ValueError(
            f"{path}: malformed partition spec (label client and column must be "
            f"strings, got {label_client!r} and {label_column!r})"
        )
    return PartitionSpec(
        tuple(ClientSpec(name, tuple(features)) for name, features in clients),
        label_client, label_column)


def save_partition_spec(spec: PartitionSpec, path) -> None:
    doc = {
        "clients": [
            {"name": c.name, "features": list(c.feature_columns)}
            for c in spec.clients
        ],
        "label": {"client": spec.label_client, "column": spec.label_column},
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def partition_dataset(header: Sequence[str], rows: np.ndarray,
                      spec: PartitionSpec) -> tuple[list[ClientShard], CentralDataset]:
    """Slice columns per client; the central dataset keeps the same column order."""
    column_index = {name: i for i, name in enumerate(header)}
    if spec.label_column not in column_index:
        raise ValueError(f"label column {spec.label_column!r} not in header")
    owners = [c.name for c in spec.clients]
    if spec.label_client not in owners:
        raise ValueError(f"label client {spec.label_client!r} not among clients {owners}")
    if len(set(owners)) != len(owners):
        raise ValueError(f"duplicate client names in {owners}")

    seen: dict[str, str] = {}
    for client in spec.clients:
        if not client.feature_columns:
            raise ValueError(f"client {client.name!r} owns no feature columns")
        for col in client.feature_columns:
            if col == spec.label_column:
                raise ValueError(
                    f"label column {col!r} also assigned to client {client.name!r}"
                )
            if col not in column_index:
                raise ValueError(
                    f"column {col!r} (client {client.name!r}) not in header"
                )
            if col in seen:
                raise ValueError(
                    f"column {col!r} assigned to both {seen[col]!r} and {client.name!r}"
                )
            seen[col] = client.name
    uncovered = [name for name in header
                 if name != spec.label_column and name not in seen]
    if uncovered:
        raise ValueError(f"columns {uncovered} belong to no client")

    y = rows[:, column_index[spec.label_column]].copy()
    shards = []
    for client in spec.clients:
        cols = [column_index[c] for c in client.feature_columns]
        labels = y if client.name == spec.label_client else None
        shards.append(ClientShard(rows[:, cols].copy(), labels))
    X = np.hstack([sh.features for sh in shards])
    return shards, CentralDataset(X=X, y=y)


@dataclass
class SyntheticDataset:
    """A generated dataset with its partition and generating weights."""

    header: list[str]
    rows: np.ndarray
    spec: PartitionSpec
    true_weights: np.ndarray


def _partition_for(features_per_client: Sequence[int]) -> tuple[list[str], PartitionSpec]:
    names = []
    clients = []
    start = 0
    for i, count in enumerate(features_per_client):
        cols = tuple(f"x{start + k}" for k in range(count))
        names.extend(cols)
        clients.append(ClientSpec(name=f"c{i}", feature_columns=cols))
        start += count
    names.append("y")
    spec = PartitionSpec(tuple(clients), label_client="c0", label_column="y")
    return names, spec


def synthesize_linear(n_rows: int, features_per_client: Sequence[int], seed: int,
                      feature_range: int = 4, weight_range: int = 3,
                      noise_range: int = 1) -> SyntheticDataset:
    """Integer-valued linear data: y = Xw + e with integer w and e.

    Integer values keep the dataset lossless under exact-mode
    quantization, so secure runs on it can be compared bitwise against
    plaintext descent.
    """
    rng = seeded(seed)
    F = sum(features_per_client)
    X = uniform_ints(rng, -feature_range, feature_range, (n_rows, F))
    w = uniform_ints(rng, -weight_range, weight_range, F)
    noise = uniform_ints(rng, -noise_range, noise_range, n_rows)
    y = X @ w + noise
    header, spec = _partition_for(features_per_client)
    rows = np.column_stack([X, y])
    return SyntheticDataset(header, rows, spec, w)


def synthesize_logistic(n_rows: int, features_per_client: Sequence[int], seed: int,
                        feature_range: int = 2,
                        weight_range: int = 2) -> SyntheticDataset:
    """Integer features with 0/1 labels from the sign of a linear score."""
    rng = seeded(seed)
    F = sum(features_per_client)
    X = uniform_ints(rng, -feature_range, feature_range, (n_rows, F))
    w = uniform_ints(rng, -weight_range, weight_range, F)
    y = (X @ w > 0).astype(float)
    header, spec = _partition_for(features_per_client)
    rows = np.column_stack([X, y])
    return SyntheticDataset(header, rows, spec, w)


def synthesize(model_kind: str, n_rows: int, features_per_client: Sequence[int],
               seed: int) -> SyntheticDataset:
    """The seeded dataset of a model kind.

    Values come from draws.uniform_ints on draws.seeded(seed): the
    features row by row, then the weights, then (linear only) the noise.
    A seed that is not an int raises TypeError and a negative one
    ValueError.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    if model_kind == MODEL_LINEAR:
        return synthesize_linear(n_rows, features_per_client, seed)
    if model_kind == MODEL_LOGISTIC_TAYLOR:
        return synthesize_logistic(n_rows, features_per_client, seed)
    raise ValueError(f"unknown model kind {model_kind!r}")
