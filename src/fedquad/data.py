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
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .baseline import MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR, CentralDataset
from .draws import check_int, seeded, uniform_ints
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

    The file is read as UTF-8 whatever the locale, and a leading
    byte-order mark is dropped. The body is parsed by numpy's C reader
    straight from the open file: cells are ASCII decimal, ``inf`` or
    ``nan`` spellings, optionally quoted with ``"``; blank lines are
    skipped. Each value is bitwise the ``float`` of its cell, as numpy
    parses through the same routine.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    """Write a numeric matrix under the given header, as UTF-8 whatever the locale."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.asarray(rows):
            writer.writerow([repr(float(v)) for v in row])


# How messages name the type of each value json.load returns.
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _typed(value, kind: type, what: str):
    """value if it is a kind, else a ValueError naming what, the kind and value's type."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}, "
                         f"got {_JSON_TYPES[type(value)]}")
    return value


def _field(obj: dict, key: str, kind: type, where: str):
    """obj[key] if present and a kind; the message names the key after where."""
    if key not in obj:
        raise ValueError(f"{where}{key!r} is missing")
    return _typed(obj[key], kind, f"{where}{key!r}")


def load_partition_spec(path) -> PartitionSpec:
    """Parse and structurally validate a partition spec document.

    The file is read as UTF-8 whatever the locale, and a leading
    byte-order mark is dropped, as load_csv does. Client names and label
    fields must be strings and each client's features a list of strings;
    a string is not split into columns. A malformed document's message
    names the missing key or the expected type of the field.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"{path}: {err}") from None
    try:
        doc = _typed(doc, dict, "the spec")
        clients = []
        for i, client in enumerate(_field(doc, "clients", list, "")):
            client = _typed(client, dict, f"client {i}")
            name = _field(client, "name", str, f"client {i} ")
            features = _field(client, "features", list, f"client {i} ")
            for feature in features:
                _typed(feature, str, f"client {i} 'features' entry")
            clients.append(ClientSpec(name, tuple(features)))
        label = _field(doc, "label", dict, "")
        return PartitionSpec(tuple(clients), _field(label, "client", str, "label "),
                             _field(label, "column", str, "label "))
    except ValueError as err:
        raise ValueError(f"{path}: malformed partition spec ({err})") from None


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
    """Slice columns per client; the central dataset keeps the same column order.

    The feature columns are gathered from rows once, into the central X;
    each shard's features are a view of its columns of that X.
    """
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

    # y and X (a gather) are copies, so nothing returned keeps the table alive.
    y = rows[:, column_index[spec.label_column]].copy()
    order = [column_index[c] for client in spec.clients for c in client.feature_columns]
    X = rows[:, order]
    edges = list(accumulate((len(c.feature_columns) for c in spec.clients), initial=0))
    shards = [ClientShard(X[:, a:b], y if client.name == spec.label_client else None)
              for client, a, b in zip(spec.clients, edges, edges[1:])]
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


# Per model kind, the ranges [-r, r] of the synthetic features and weights.
_SYNTHETIC_RANGES = {MODEL_LINEAR: (4, 3), MODEL_LOGISTIC_TAYLOR: (2, 2)}


def synthesize(model_kind: str, n_rows: int, features_per_client: Sequence[int],
               seed: int) -> SyntheticDataset:
    """The seeded integer dataset of a model kind.

    Linear data has features in [-4, 4], weights in [-3, 3] and labels
    y = Xw + e with noise e in [-1, 1]; logistic data has features and
    weights in [-2, 2] and 0/1 labels from the sign of Xw. Integer values
    keep the dataset lossless under exact-mode quantization, so secure
    runs on it can be compared bitwise against plaintext descent.

    Values come from draws.uniform_ints on draws.seeded(seed): the
    features row by row, then the weights, then (linear only) the noise.
    An n_rows, feature count or seed that is not an int raises TypeError,
    and n_rows or a count below 1, or a negative seed, ValueError
    (draws.check_int); a count's message names its client.
    """
    n_rows = check_int("n_rows", n_rows, 1)
    features_per_client = [check_int(f"client {i} feature count", count, 1)
                           for i, count in enumerate(features_per_client)]
    if model_kind not in _SYNTHETIC_RANGES:
        raise ValueError(f"unknown model kind {model_kind!r}")
    feature_range, weight_range = _SYNTHETIC_RANGES[model_kind]
    rng = seeded(seed)
    F = sum(features_per_client)
    X = uniform_ints(rng, -feature_range, feature_range, (n_rows, F))
    w = uniform_ints(rng, -weight_range, weight_range, F)
    if model_kind == MODEL_LINEAR:
        y = X @ w + uniform_ints(rng, -1, 1, n_rows)
    else:
        y = (X @ w > 0).astype(float)
    header, spec = _partition_for(features_per_client)
    return SyntheticDataset(header, np.column_stack([X, y]), spec, w)
