import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedquad.baseline import MODEL_LINEAR, MODEL_LOGISTIC_TAYLOR
from fedquad.data import (
    ClientSpec,
    PartitionSpec,
    load_csv,
    load_partition_spec,
    partition_dataset,
    refuse_past_guard,
    save_partition_spec,
    synthesize,
    write_csv,
)
from fedquad.protocol import TrainingConfig, TrainingPlan


@pytest.fixture
def spec():
    return PartitionSpec(
        clients=(
            ClientSpec("alpha", ("x0", "x1")),
            ClientSpec("beta", ("x2",)),
        ),
        label_client="alpha",
        label_column="y",
    )


HEADER = ["x0", "x1", "x2", "y"]
ROWS = np.array([
    [1.0, 2.0, 3.0, 4.0],
    [5.0, 6.0, 7.0, 8.0],
])


class TestCsvRoundtrip:
    def test_roundtrip_preserves_values(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, HEADER, ROWS)
        header, rows = load_csv(path)
        assert header == HEADER
        assert np.array_equal(rows, ROWS)

    def test_roundtrip_preserves_non_dyadic_floats(self, tmp_path):
        path = tmp_path / "data.csv"
        values = np.array([[0.1, 1 / 3], [-2.7e-13, 1e17]])
        write_csv(path, ["a", "b"], values)
        _, rows = load_csv(path)
        assert np.array_equal(rows, values)

    def test_ascii_locale_writes_utf8(self, tmp_path):
        # Under the C locale without UTF-8 mode, open() defaults to ASCII;
        # write_csv writes UTF-8 anyway, so load_csv reads back the header.
        path = tmp_path / "data.csv"
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from fedquad.data import load_csv, write_csv\n"
                  "rows = np.array([[1.0, -0.5], [3.0, 2.0 ** -30]])\n"
                  "write_csv(sys.argv[1], ['x0', 'gr\\u00f6\\u00dfe'], rows)\n"
                  "header, back = load_csv(sys.argv[1])\n"
                  "print(ascii(header), back.tobytes() == rows.tobytes())\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['x0', 'gr\\xf6\\xdfe'] True\n"
        assert path.read_bytes().startswith("x0,gr\u00f6\u00dfe\r\n".encode("utf-8"))

    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark; it
    # is not part of the first column's name.
    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfx0,gr\xc3\xb6\xc3\x9fe\n1,2\n3,4\n")
        header, rows = load_csv(path)
        assert header == ["x0", "gr\u00f6\u00dfe"]
        assert np.array_equal(rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_duplicate_columns_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(path)

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 3, column 'b'"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2,3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_line_numbers_count_file_lines_not_records(self, tmp_path):
        # The quoted cell "2\n" spans lines 2 and 3, so x sits on line 4.
        path = tmp_path / "data.csv"
        path.write_text('a,b\n1,"2\n"\n4,x\n')
        with pytest.raises(ValueError, match="line 4, column 'b': non-numeric cell 'x'"):
            load_csv(path)


class TestRefusePastGuard:
    # The guard at 2**12 is |v| < 2**50.
    @pytest.mark.parametrize("cell,problem", [
        (repr(2.0 ** 50 - 1), None),
        (repr(-2.0 ** 50), "line 3, column 'b': |-1125899906842624.0| * 2**12 "
                           "exceeds the 2**62 quantizer guard"),
    ], ids=["below", "at"])
    def test_the_plan_guard_by_file_line_and_column(self, cell, problem, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(f'y,a,b\n1,2,3\n4,"5",{cell}\n')
        spec = PartitionSpec((ClientSpec("c0", ("a", "b")),), "c0", "y")
        shards = partition_dataset(*load_csv(path), spec)[0]
        if problem is None:
            assert refuse_past_guard(path, 12) is None
            TrainingPlan(shards, TrainingConfig())
            return
        with pytest.raises(OverflowError) as named:
            refuse_past_guard(path, 12)
        assert str(named.value) == f"{path}: {problem}"
        # A library caller gets the plan's own message, by table entry.
        with pytest.raises(OverflowError, match=r"guard at entry \(1, 1\)$"):
            TrainingPlan(shards, TrainingConfig())


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# Spellings write_csv never produces but a hand-made file may hold.
_SPELLINGS = ["-0.0", "0e0", "4.9e-324", "2.2250738585072011e-308", "1e-400",
              "1.", ".5", "+7", " 3 "]
# Spellings the C reader parses to a value that is not finite; 1e400 overflows.
_NON_FINITE = ["1e400", "-1e400", "nan", "-nan", "NaN", "inf", "-inf",
               "+inf", "Infinity", "-INFINITY"]

_finite = st.floats(allow_nan=False, allow_infinity=False)
_cells = st.one_of(
    _finite.map(repr),
    _finite.map(lambda v: "%.17g" % v),
    # Rounding to 4 digits can carry the largest floats past the range.
    _finite.map(lambda v: "%.3e" % v).filter(lambda cell: math.isfinite(float(cell))),
    st.sampled_from(_SPELLINGS),
)


class TestCsvParsing:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_finite, min_size=1, max_size=24))
    @example([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308])
    def test_write_csv_roundtrip_is_bitwise(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        rows = np.array(values).reshape(-1, 1)
        write_csv(path, ["v"], rows)
        _, loaded = load_csv(path)
        assert loaded.shape == rows.shape
        # repr is the shortest text that parses back to the same float.
        assert _bits(loaded) == _bits(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(_cells, min_size=3, max_size=3),
                    min_size=1, max_size=8))
    def test_cells_parse_bitwise_as_float(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in records))
        _, loaded = load_csv(path)
        assert _bits(loaded) == _bits([[float(c) for c in r] for r in records])

    @pytest.mark.parametrize("cell", _NON_FINITE)
    def test_non_finite_cell_is_refused_by_line_and_column(self, tmp_path, cell):
        # The first bad cell is named, quoted or not, before a later one.
        path = tmp_path / "data.csv"
        path.write_text(f'a,b,c\n1,2,3\n4,5,"{cell}"\n{cell},x,9\n')
        with pytest.raises(ValueError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: line 3, column 'c': non-finite cell {cell!r}"

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x0,x1,x2,y\r\n1,2,3,4\r\n5,6,7,8\r\n")
        header, rows = load_csv(path)
        assert header == HEADER
        assert np.array_equal(rows, ROWS)

    def test_quoted_cells(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('"x0",x1,x2,"y"\n"1",2,"3.0",4\n5,"6e0",7,"8"\n')
        header, rows = load_csv(path)
        assert header == HEADER
        assert np.array_equal(rows, ROWS)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,x2,y\n\n1,2,3,4\n\n\n5,6,7,8\n\n")
        _, rows = load_csv(path)
        assert np.array_equal(rows, ROWS)

    @pytest.mark.parametrize("text,shape", [
        ("a,b,c\n1,2,3\n", (1, 3)),
        ("a\n1\n2\n3\n", (3, 1)),
        ("a\n1", (1, 1)),
    ])
    def test_single_row_or_column_stays_2d(self, tmp_path, text, shape):
        path = tmp_path / "data.csv"
        path.write_text(text)
        _, rows = load_csv(path)
        assert rows.shape == shape

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_only_raises_without_warning(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows"):
                load_csv(path)

    def test_trailing_comma_names_the_empty_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,\n")
        with pytest.raises(ValueError,
                           match="line 3, column 'c': non-numeric cell ''"):
            load_csv(path)

    def test_consistent_width_other_than_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="line 2 has 3 cells, expected 2"):
            load_csv(path)

    def test_ragged_row_after_blank_line_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n\n3\n")
        with pytest.raises(ValueError, match="line 4 has 1 cells, expected 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661"])
    def test_cells_only_float_accepts_are_rejected(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"a,b\n1,{cell}\n", encoding="utf-8")
        float(cell)  # accepted here, refused by the C reader
        with pytest.raises(ValueError, match=rf"data\.csv: line 2, column 'b': "
                                             rf"non-numeric cell '{cell}'") as err:
            load_csv(path)
        assert "\n" not in str(err.value)

    def test_peak_memory_stays_near_the_result(self, tmp_path):
        path = tmp_path / "data.csv"
        values = np.random.default_rng(3).normal(size=(20_000, 49))
        np.savetxt(path, values, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(f"x{i}" for i in range(49)))
        tracemalloc.start()
        try:
            _, rows = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(rows, values)
        assert peak <= 2 * rows.nbytes


class TestPartitionSpecIo:
    def test_roundtrip(self, tmp_path, spec):
        path = tmp_path / "partition.json"
        save_partition_spec(spec, path)
        assert load_partition_spec(path) == spec

    def test_document_shape(self, tmp_path, spec):
        path = tmp_path / "partition.json"
        save_partition_spec(spec, path)
        doc = json.loads(path.read_text())
        assert doc["clients"][0] == {"name": "alpha", "features": ["x0", "x1"]}
        assert doc["label"] == {"client": "alpha", "column": "y"}

    def test_byte_order_mark_is_dropped(self, tmp_path, spec):
        path = tmp_path / "partition.json"
        save_partition_spec(spec, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_partition_spec(path) == spec

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "partition.json"
        path.write_text(json.dumps({"clients": [{"name": "a"}]}))
        with pytest.raises(ValueError, match="malformed"):
            load_partition_spec(path)


class TestPartitionDataset:
    def test_columns_routed_to_owners(self, spec):
        shards, central = partition_dataset(HEADER, ROWS, spec)
        assert len(shards) == 2
        assert np.array_equal(shards[0].features, ROWS[:, :2])
        assert np.array_equal(shards[1].features, ROWS[:, 2:3])
        assert np.array_equal(shards[0].labels, ROWS[:, 3])
        assert shards[1].labels is None

    def test_central_matrix_in_client_order(self, spec):
        shards, central = partition_dataset(HEADER, ROWS, spec)
        assert np.array_equal(central.X,
                              np.hstack([sh.features for sh in shards]))
        assert np.array_equal(central.y, ROWS[:, 3])

    def test_features_are_gathered_once(self):
        # Each shard is a view of central.X, so the partition holds one copy
        # of the table: the features in X and the labels in y.
        dataset = synthesize(MODEL_LINEAR, 4096, [16, 16, 16, 16], seed=1)
        tracemalloc.start()
        try:
            shards, central = partition_dataset(dataset.header, dataset.rows, dataset.spec)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(np.shares_memory(sh.features, central.X) for sh in shards)
        assert held < 1.3 * dataset.rows.nbytes

    def test_central_order_follows_spec_not_header(self):
        swapped = PartitionSpec(
            clients=(ClientSpec("beta", ("x2",)),
                     ClientSpec("alpha", ("x0", "x1"))),
            label_client="alpha", label_column="y",
        )
        _, central = partition_dataset(HEADER, ROWS, swapped)
        assert np.array_equal(central.X, ROWS[:, [2, 0, 1]])

    @pytest.mark.parametrize("bad_spec,message", [
        (PartitionSpec((ClientSpec("a", ("x0", "x1", "x2")),), "a", "missing"),
         "label column"),
        (PartitionSpec((ClientSpec("a", ("x0", "x1", "x2")),), "ghost", "y"),
         "label client"),
        (PartitionSpec((ClientSpec("a", ("x0",)), ClientSpec("a", ("x1", "x2"))),
                       "a", "y"),
         "duplicate client"),
        (PartitionSpec((ClientSpec("a", ()), ClientSpec("b", ("x0", "x1", "x2"))),
                       "a", "y"),
         "no feature columns"),
        (PartitionSpec((ClientSpec("a", ("x0", "y")), ClientSpec("b", ("x1", "x2"))),
                       "a", "y"),
         "label column 'y' also assigned"),
        (PartitionSpec((ClientSpec("a", ("x0", "nope")), ClientSpec("b", ("x1", "x2"))),
                       "a", "y"),
         "not in header"),
        (PartitionSpec((ClientSpec("a", ("x0", "x1")), ClientSpec("b", ("x1", "x2"))),
                       "a", "y"),
         "assigned to both"),
        (PartitionSpec((ClientSpec("a", ("x0", "x1")),), "a", "y"),
         "belong to no client"),
    ])
    def test_invalid_specs_rejected(self, bad_spec, message):
        with pytest.raises(ValueError, match=message):
            partition_dataset(HEADER, ROWS, bad_spec)


class TestSynthesize:
    def test_linear_noise_is_bounded(self):
        data = synthesize(MODEL_LINEAR, 64, [2, 2], seed=8)
        X = data.rows[:, :4]
        noise = data.rows[:, 4] - X @ data.true_weights
        assert np.all(np.abs(noise) <= 1)
        assert np.array_equal(noise, np.round(noise))

    def test_logistic_labels_are_score_signs(self):
        data = synthesize(MODEL_LOGISTIC_TAYLOR, 48, [3], seed=9)
        X = data.rows[:, :3]
        y = data.rows[:, 3]
        assert np.array_equal(y, (X @ data.true_weights > 0).astype(float))

    def test_values_are_integers(self):
        data = synthesize(MODEL_LINEAR, 16, [2, 2], seed=10)
        assert np.array_equal(data.rows, np.round(data.rows))

    def test_partition_matches_layout(self):
        data = synthesize(MODEL_LINEAR, 8, [2, 3], seed=11)
        assert data.header == ["x0", "x1", "x2", "x3", "x4", "y"]
        assert [c.name for c in data.spec.clients] == ["c0", "c1"]
        assert data.spec.clients[1].feature_columns == ("x2", "x3", "x4")
        assert data.spec.label_client == "c0"
        shards, central = partition_dataset(data.header, data.rows, data.spec)
        assert shards[0].labels is not None
        assert central.X.shape == (8, 5)

    def test_deterministic_per_seed(self):
        a = synthesize(MODEL_LOGISTIC_TAYLOR, 20, [2], seed=12)
        b = synthesize(MODEL_LOGISTIC_TAYLOR, 20, [2], seed=12)
        c = synthesize(MODEL_LOGISTIC_TAYLOR, 20, [2], seed=13)
        assert np.array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    @pytest.mark.parametrize("n_rows, error, message", [
        (2.5, TypeError, "n_rows must be an integer, got 2.5"),
        (True, TypeError, "n_rows must be an integer, got True"),
        (-3, ValueError, "n_rows must be >= 1, got -3"),
    ], ids=["float", "bool", "negative"])
    def test_n_rows_refused_by_name(self, n_rows, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            synthesize(MODEL_LINEAR, n_rows, [1], 0)

    @pytest.mark.parametrize("counts, error, message", [
        ([-1, 2], ValueError, "client 0 feature count must be >= 1, got -1"),
        ([2, 0], ValueError, "client 1 feature count must be >= 1, got 0"),
        ([True, 2], TypeError, "client 0 feature count must be an integer, got True"),
        ([2.0], TypeError, "client 0 feature count must be an integer, got 2.0"),
    ], ids=["negative", "zero", "bool", "float"])
    def test_feature_counts_refused_by_client(self, counts, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            synthesize(MODEL_LINEAR, 4, counts, 0)

    def test_numpy_feature_counts_are_their_ints(self):
        data = synthesize(MODEL_LINEAR, 4, np.array([1, 2]), 0)
        assert data.header == synthesize(MODEL_LINEAR, 4, [1, 2], 0).header == [
            "x0", "x1", "x2", "y"]

    # random.Random would hash these silently (default_rng raised).
    @pytest.mark.parametrize("seed", [1.5, "3", None], ids=["float", "str", "none"])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(TypeError):
            synthesize(MODEL_LINEAR, 8, [2], seed=seed)

    def test_negative_seed_rejected(self):
        # random.Random would take -1 as 1.
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            synthesize(MODEL_LOGISTIC_TAYLOR, 8, [2], seed=-1)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model kind"):
            synthesize("cubic", 8, [2], seed=0)

    def test_file_roundtrip_feeds_training(self, tmp_path):
        data = synthesize(MODEL_LINEAR, 12, [1, 2], seed=14)
        csv_path = tmp_path / "d.csv"
        spec_path = tmp_path / "p.json"
        write_csv(csv_path, data.header, data.rows)
        save_partition_spec(data.spec, spec_path)
        header, rows = load_csv(csv_path)
        shards, central = partition_dataset(header, rows,
                                            load_partition_spec(spec_path))
        assert np.array_equal(central.X, data.rows[:, :3])
        assert np.array_equal(central.y, data.rows[:, 3])
