"""CSV interchange: the one-call parse against the csv row reader, and pinned bytes."""

import csv
import hashlib
import io
import logging
import math
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmyo import csvio, datasets
from qmyo.cli import main
from qmyo.datasets import (
    FeatureDataset,
    from_training_table,
    load_feature_dataset,
    save_feature_dataset,
)
from qmyo.errors import DatasetParseError
from qmyo.features import EmgRecording, load_recording, save_recording
from qmyo.operators import DOFS, Dof
from qmyo.synthetic import generate_raw_emg, generate_training_table, orthogonal_mixing_model

# Mutations of a written file's text. The first three leave a file the
# fast parse must accept; the others may send it to the row reader.
FAST_MUTATIONS = ["space", "lf", "no_final_newline"]
MUTATIONS = FAST_MUTATIONS + [
    "special", "quote", "hash", "underscore", "blank", "trailing_comma", "header_only", "lone_cr",
    "ragged", "nul", "unicode_space",
]


@st.composite
def mutated(draw, text):
    """``text`` (CRLF lines) after one or two mutations, and the mutations applied."""
    lines = text.split("\r\n")[:-1]
    ending, final = "\r\n", True
    kinds = draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2))
    for kind in kinds:
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        # often the last cell, which the fast parse reads apart from the floats
        j = draw(st.integers(0, len(cells) - 1) | st.just(len(cells) - 1))
        if kind == "space":
            pad = draw(st.sampled_from([" ", "\t", "  "]))
            cells = [pad + cell + pad for cell in cells]
        elif kind == "special":
            cells[j] = draw(st.sampled_from(
                ["nan", "inf", "-inf", "Infinity", " NaN", "1e999", "-0", "2.5"]))
        elif kind == "quote":
            cells[j] = f'"{cells[j]}"'
        elif kind == "hash":
            cells[j] = draw(st.sampled_from(["#", "#" + cells[j], cells[j] + "#"]))
        elif kind == "underscore":
            cells[j] = "1_0"
        elif kind == "unicode_space":
            cells[j] = "\xa0" + cells[j] + "\u2003"
        elif kind == "nul":
            cells[j] += "\0"
        elif kind == "lone_cr":
            cells[j] = cells[j][:1] + "\r" + cells[j][1:]
        elif kind == "ragged":
            if draw(st.booleans()):
                del cells[j]
            else:
                cells.insert(j, "1.0")
        elif kind == "trailing_comma":
            cells.append("")
        lines[i] = ",".join(cells)
        if kind == "blank":
            lines.insert(i + 1, draw(st.sampled_from(["", " "])))
        elif kind == "header_only":
            lines = lines[:1]
        elif kind == "lf":
            ending = "\n"
        elif kind == "no_final_newline":
            final = False
    return ending.join(lines) + (ending if final else ""), kinds


@contextmanager
def logged(name):
    """The messages ``name`` logs at INFO and above inside the block."""
    logger = logging.getLogger(name)
    messages, handler, level = [], logging.Handler(), logger.level
    handler.emit = lambda record: messages.append(record.getMessage())
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def outcome(load, path):
    """What ``load(path)`` returns or raises, and the warnings it gives.

    Returns ``("ok", value, warned)`` or ``(type, message, warned)``, so
    neither parse may warn where the other does not.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            kind, value = "ok", load(path)
        except Exception as exc:  # the comparison covers every exception the reader raises
            kind, value = type(exc), str(exc)
    return kind, value, [f"{w.category.__name__}: {w.message}" for w in caught]


def row_reader():
    """Send every read to the ``csv`` row reader, as if the one-call parse were unsure."""
    return mock.patch.object(csvio, "_read_fast", return_value=None)


def fast_only():
    """Fail a read the one-call parse does not vouch for."""
    return mock.patch.object(csvio, "_read_rows", side_effect=AssertionError("row reader"))


def dataset_outcome(path, fast):
    with nullcontext() if fast else row_reader(), logged("qmyo.datasets") as messages:
        kind, ds, warned = outcome(load_feature_dataset, path)
    if kind == "ok":
        ds = (ds.features.shape, ds.features.tobytes(), ds.angles.tobytes(), ds.direct.tolist(),
              ds.block_ids.tolist())
    return kind, ds, messages, warned


floats = st.floats(allow_nan=False, allow_infinity=False)
magnitudes = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 0.1, 1e300])


@st.composite
def feature_datasets(draw):
    n = draw(st.integers(1, 8))
    n_channels = draw(st.integers(1, 3))
    values = draw(st.lists(magnitudes, min_size=n * n_channels, max_size=n * n_channels))
    angles = np.zeros((n, len(DOFS)))
    for k in draw(st.sets(st.sampled_from(range(len(DOFS))))):
        angles[:, k] = draw(st.lists(floats | st.just(0.0), min_size=n, max_size=n))
    return FeatureDataset(
        features=np.array(values).reshape(n, n_channels),
        angles=angles,
        direct=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        block_ids=np.array(sorted(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))),
    )


class TestFastParseEqualsRowReader:
    @given(ds=feature_datasets(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_feature_dataset(self, tmp_path_factory, ds, data):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_feature_dataset(ds, path)
        with fast_only():
            load_feature_dataset(path)
        kind, loaded, _, warned = dataset_outcome(path, fast=True)
        assert (kind, loaded, warned) == ("ok", (
            ds.features.shape, ds.features.tobytes(), ds.angles.tobytes(), ds.direct.tolist(),
            ds.block_ids.tolist()), [])
        text, kinds = data.draw(mutated(path.read_bytes().decode()))
        path.write_bytes(text.encode())
        assert dataset_outcome(path, fast=True) == dataset_outcome(path, fast=False)
        if set(kinds) <= set(FAST_MUTATIONS):
            with fast_only():
                load_feature_dataset(path)

    def test_blank_lines_after_the_header(self, tmp_path):
        """np.loadtxt skips the blank lines and warns; the row reader rejects the first."""
        path = tmp_path / "d.csv"
        path.write_text(",".join(datasets._header(2)) + "\r\n\r\n\r\n", newline="")
        with fast_only(), pytest.raises(AssertionError, match="row reader"):
            load_feature_dataset(path)
        kind, message, _, warned = dataset_outcome(path, fast=True)
        assert (kind, message, warned) == (
            datasets.DatasetSchemaError, f"{path}:2: expected 7 values, got 0", [])
        assert dataset_outcome(path, fast=True) == dataset_outcome(path, fast=False)

    @given(
        samples=st.integers(1, 8).flatmap(lambda n: st.integers(1, 3).flatmap(
            lambda c: st.lists(floats, min_size=n * c, max_size=n * c).map(
                lambda v: np.array(v).reshape(n, c)))),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_recording(self, tmp_path_factory, samples, data):
        def load(p):
            rec = load_recording(p)
            return rec.samples.shape, rec.samples.tobytes()

        path = tmp_path_factory.mktemp("csv") / "r.csv"
        save_recording(EmgRecording(samples, 1024.0), path)
        with fast_only():
            load(path)
        assert outcome(load, path) == ("ok", (samples.shape, samples.tobytes()), [])
        text, kinds = data.draw(mutated(path.read_bytes().decode()))
        path.write_bytes(text.encode())
        with row_reader():
            rows = outcome(load, path)
        assert outcome(load, path) == rows
        if set(kinds) <= set(FAST_MUTATIONS):
            with fast_only():
                load(path)

    def test_recording_names_a_non_finite_sample_at_its_line(self, tmp_path):
        """On both paths, as a Python float; a quoted cell spanning lines moves the line."""
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_bytes(b"ch1,ch2\r\n1.0,2.0\r\n3.0,inf\r\n")
        quoted.write_bytes(b'ch1,ch2\r\n"1.0\r\n",2.0\r\n-inf,4.0\r\n3.0,nan\r\n')
        with fast_only(), pytest.raises(DatasetParseError) as fast:
            load_recording(plain)
        assert str(fast.value) == f"{plain}:3: samples must be finite, got ch2 = inf"
        with pytest.raises(DatasetParseError) as rows:
            load_recording(quoted)
        assert str(rows.value) == f"{quoted}:4: samples must be finite, got ch1 = -inf"


# Row counts on and either side of the writer's 1024-row block edges, and
# column counts of both parities.
BLOCK_ROWS = [0, 1, 1023, 1024, 1025, 2049]
WIDTHS = [1, 2, 13, 16, 22]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]


def csv_writer_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``header`` and ``rows``, floats as ``repr``."""
    out = io.StringIO(newline="")
    csv.writer(out).writerows([header] + [
        [repr(cell) if isinstance(cell, float) else cell for cell in row] for row in rows])
    return out.getvalue().encode()


def float_table(n_rows, n_columns, seed):
    """Floats of every magnitude, with every special value spread over the columns."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n_rows, n_columns)) * 10.0 ** rng.integers(
        -320, 300, (n_rows, n_columns))
    table.flat[::7] = np.resize(SPECIAL, table.flat[::7].size)
    return table


@pytest.mark.parametrize("n_rows", BLOCK_ROWS)
class TestBlockEdges:
    """Written bytes equal ``csv.writer``'s across the writer's block edges."""

    @pytest.mark.parametrize("n_columns", WIDTHS)
    def test_write_rows(self, tmp_path, n_rows, n_columns):
        table = float_table(n_rows, n_columns, seed=n_rows + n_columns).tolist()
        kinds = [  # float, int and label cells by turns
            lambda i, j: table[i][j], lambda i, j: str(i * 7919 - 10**6), lambda i, j: "ab"[i % 2]]
        rows = [[kinds[j % 3](i, j) for j in range(n_columns)] for i in range(n_rows)]
        header = [f"c{j}" for j in range(n_columns)]
        columns = [[repr(row[j]) if isinstance(row[j], float) else row[j] for row in rows]
                   for j in range(n_columns)]
        csvio.write_rows(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == csv_writer_bytes(header, rows)

    @pytest.mark.parametrize("n_columns", WIDTHS)
    def test_save_recording(self, tmp_path, n_rows, n_columns):
        samples = float_table(n_rows, n_columns, seed=n_rows * n_columns)
        save_recording(EmgRecording(samples, 1024.0), tmp_path / "r.csv")
        header = [f"ch{j + 1}" for j in range(n_columns)]
        assert (tmp_path / "r.csv").read_bytes() == csv_writer_bytes(header, samples.tolist())

    @pytest.mark.parametrize("n_channels", [8, 11, 17])  # 13, 16 and 22 columns
    def test_save_feature_dataset(self, tmp_path, n_rows, n_channels):
        rng = np.random.default_rng([n_rows, n_channels])
        finite = np.nan_to_num(float_table(n_rows, n_channels + 3, seed=n_channels),
                               nan=0.0, posinf=1e308, neginf=-1e308)
        # runs of ids at both ends of the int64 range
        steps, limits = np.cumsum(rng.integers(0, 2, n_rows)), np.iinfo(np.int64)
        block_ids = np.where(np.arange(n_rows) < n_rows // 2,
                             limits.min + steps, limits.max - n_rows + steps)
        ds = FeatureDataset(np.abs(finite[:, :n_channels]), finite[:, n_channels:],
                            rng.random(n_rows) < 0.5, block_ids)
        save_feature_dataset(ds, tmp_path / "d.csv")
        rows = [values + ["direct" if direct else "return", str(block)] for values, direct, block
                in zip(np.hstack([ds.features, ds.angles]).tolist(), ds.direct, block_ids.tolist())]
        assert (tmp_path / "d.csv").read_bytes() == csv_writer_bytes(
            datasets._header(n_channels), rows)


def test_a_save_holds_a_block_not_the_file(tmp_path):
    """Saving a 100,000-row, 8-channel dataset traces well under the file's size:
    the text is written a part at a time, never held whole."""
    rng = np.random.default_rng(8)
    n = 100_000
    angles = np.zeros((n, len(DOFS)))
    angles[:, 0] = rng.uniform(-40.0, 40.0, n)
    ds = FeatureDataset(rng.random((n, 8)), angles, rng.random(n) < 0.5, np.arange(n) // 150)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        save_feature_dataset(ds, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 16e6
    assert peak < 8e6


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mutated_training_files_end_in_an_exit_code(tmp_path_factory, data):
    """``train --data`` on a mutated training CSV succeeds quietly, or exits
    1-3 with one ``qmyo:`` line, no traceback and no warning."""
    path = tmp_path_factory.mktemp("csv") / "train.csv"
    mixing = orthogonal_mixing_model(noise_sigma=0.1, seed=4)
    save_feature_dataset(from_training_table(generate_training_table(mixing, 4)), path)
    text, kinds = data.draw(mutated(path.read_bytes().decode()))
    path.write_bytes(text.encode())
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["train", "--data", str(path), "--out", str(path.with_suffix(".json"))])
    lines = err.getvalue().splitlines()
    assert [str(w.message) for w in caught] == [], kinds
    if code == 0:
        assert lines == [], kinds
    else:
        assert code in (1, 2, 3) and len(lines) == 1 and lines[0].startswith("qmyo: "), kinds


def test_valid_files_never_touch_the_csv_module(tmp_path, monkeypatch, capsys):
    """synth, train, evaluate --decode-out and decode --raw read and write without csv."""
    made = []

    def counting(name, real):
        def make(*args, **kwargs):
            made.append(name)
            return real(*args, **kwargs)
        return make

    for name in ("reader", "writer"):
        monkeypatch.setattr(csv, name, counting(name, getattr(csv, name)))
    train_csv, test_csv, raw_csv = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "r.csv"
    save_recording(generate_raw_emg(orthogonal_mixing_model(seed=2), {Dof.FLEXION_EXTENSION: 25.0},
                                    0.2), raw_csv)
    for argv in [
        ("synth", "--train-out", train_csv, "--test-out", test_csv, "--per-action", 40,
         "--blocks", 11, "--windows", 220, "--noise-sigma", 0.1, "--seed", 3),
        ("train", "--data", train_csv, "--out", tmp_path / "m.json"),
        ("evaluate", "--test", test_csv, "--train-data", train_csv, "--sizes", 10, 40,
         "--decode-out", tmp_path / "decoded.csv"),
        ("decode", "--model", tmp_path / "m.json", "--raw", raw_csv, "--out", tmp_path / "d.csv"),
    ]:
        assert main([str(a) for a in argv]) == 0, argv
    assert made == []
    # the counter does count: a quoted cell sends a load to the row reader
    text = train_csv.read_text()
    train_csv.write_text(text.replace(",direct,", ',"direct",', 1))
    load_feature_dataset(train_csv)
    assert made == ["reader"]
    capsys.readouterr()


def test_pipeline_outputs_keep_their_bytes(tmp_path, capsys):
    """The sha256 of every file a small fixed-seed pipeline writes.

    The digests were recorded with the earlier ``csv``-module reader and
    writer, before the joined-string writer and the one-call parser, so
    the bytes hold across changes to the CSV code, not only between two
    runs of one version.
    """
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("synth", "--train-out", tmp_path / "train.csv", "--test-out", tmp_path / "test.csv",
        "--per-action", 40, "--blocks", 11, "--windows", 220, "--noise-sigma", 0.1, "--seed", 3)
    run("train", "--data", tmp_path / "train.csv", "--out", tmp_path / "model.json")
    run("evaluate", "--test", tmp_path / "test.csv", "--train-data", tmp_path / "train.csv",
        "--sizes", 10, 40, "--seed", 3, "--report-out", tmp_path / "report.txt",
        "--csv-out", tmp_path / "report.csv", "--decode-out", tmp_path / "decoded.csv")
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == {
        "decoded.csv": "775b1abf72ae0bca58dc3843aa3c1f3b60e83116e0a40515558ff2252c151ea8",
        "model.json": "3c2c8abd781ae951241c655e6778ed9f8de35717a55256972f56ebb1380dced5",
        "report.csv": "804e1d81d3762b8b48caced3664d7ae5ef71c8ac1cc94ea8e3b04fa06ab220ad",
        "report.txt": "e6457bdeedea88dce832c8f7532f1738c346f970fcae21eb5017f414f9bf9c9f",
        "test.csv": "b1cc5f26a59743c4ad4115de4e749f6a641d00d44ef3c92868080d1c1b6fddc6",
        "train.csv": "59e3a1ffb10b4d5ed9f7cdfd147488a6bf39e32dc642ade6dc39b633b109c815",
    }


def test_model_and_three_dof_reports_keep_their_bytes(tmp_path, capsys):
    """The sha256 of the report a model file gets, and of a three-DOF experiment's.

    The model report has no seed line and a ``-`` config hash; the
    three-DOF CSVs pin the column order of every DOF's cells, and the
    decoded one every expectation, decision and residual of the largest
    size's model.
    """
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("synth", "--train-out", tmp_path / "train.csv", "--test-out", tmp_path / "test.csv",
        "--per-action", 40, "--blocks", 11, "--windows", 220, "--noise-sigma", 0.1, "--seed", 3)
    run("train", "--data", tmp_path / "train.csv", "--out", tmp_path / "model.json")
    run("evaluate", "--test", tmp_path / "test.csv", "--model", tmp_path / "model.json",
        "--report-out", tmp_path / "model.txt", "--csv-out", tmp_path / "model.csv")
    run("synth", "--train-out", tmp_path / "train3.csv", "--test-out", tmp_path / "test3.csv",
        "--channels", 12, "--dofs", "d1", "d2", "d3", "--per-action", 40, "--blocks", 33,
        "--windows", 330, "--noise-sigma", 0.1, "--seed", 3)
    run("evaluate", "--test", tmp_path / "test3.csv", "--train-data", tmp_path / "train3.csv",
        "--sizes", 10, 40, "--seed", 3, "--report-out", tmp_path / "three.txt",
        "--csv-out", tmp_path / "three.csv", "--decode-out", tmp_path / "three_decoded.csv")
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("model.txt", "model.csv", "three.txt", "three.csv",
                            "three_decoded.csv")}
    assert digests == {
        "model.txt": "94461470b847e6f0e909d8f91345cbc7b49a6930dd199d3187ccd18693380400",
        "model.csv": "7d153408ec3b268833ce5ac5dec3352d3884c6f83753e18852cd05eda11dced3",
        "three.txt": "528e37a855b4751d1947593ae285979155af3e760ed6654c233b2d104c4ad516",
        "three.csv": "6135a211d0564a34facda3e6032196f34609282e9701f744f73e3ca8e8aa9b11",
        "three_decoded.csv": "f69b09426f82a937130a71ccc1f4c9240ee1931477daf4106b42b936550d788f",
    }


def test_any_vote_report_keeps_its_bytes(tmp_path, capsys):
    """The same small pipeline scored under the "any" block vote.

    The digest was recorded while blocks were still carried as objects
    with intended directions, so it pins the block partition and vote
    across changes to how blocks are represented.
    """
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("synth", "--train-out", tmp_path / "train.csv", "--test-out", tmp_path / "test.csv",
        "--per-action", 40, "--blocks", 11, "--windows", 220, "--noise-sigma", 0.1, "--seed", 3)
    run("evaluate", "--test", tmp_path / "test.csv", "--train-data", tmp_path / "train.csv",
        "--sizes", 10, 40, "--seed", 3, "--block-vote", "any",
        "--report-out", tmp_path / "report.txt")
    capsys.readouterr()
    report = (tmp_path / "report.txt").read_bytes()
    assert report.count(b"block_errors_d1: 3\n") == report.count(b"block_errors_d3: 6\n") == 2
    assert hashlib.sha256(report).hexdigest() == (
        "0facaa8e77f608aae621b66b0209f797c15cd9a48b756458615bbc1b7470306b"
    )
