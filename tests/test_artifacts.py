"""Artifact file primitives: atomic replacement and deterministic npz files."""

import numpy as np
import pytest

from fedtrace.artifacts import atomic_write, read_npz, write_npz
from fedtrace.errors import InvalidInput
from fedtrace.experiment import write_csv
from fedtrace.features import FeatureCatalog
from fedtrace.partition import ScriptCorpus

CATALOG = FeatureCatalog(("a", "b", "c", "d"), ())
PLACEMENTS = {"x.com": ["s0", "s2"], "y.com": ["s1"]}


def _rows_then_crash():
    yield (1, 2.0)
    raise RuntimeError("writer died mid-file")


class TestAtomicWrite:
    def test_failed_writer_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_csv(path, ("a", "b"), [(0, 1.0)])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="mid-file"):
            write_csv(path, ("a", "b"), _rows_then_crash())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_failed_first_write_creates_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "new.json") as fh:
                fh.write("{")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_in_place(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"old")
        with atomic_write(path, binary=True) as fh:
            fh.write(b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


class TestNpz:
    def test_round_trip_keeps_order_dtype_and_values(self, tmp_path):
        arrays = {"ids": np.asarray(["a#1", "bb#2"]), "v": np.arange(5, dtype=np.float32),
                  "flags": np.asarray([True, False])}
        write_npz(tmp_path / "f.npz", arrays)
        back = read_npz((tmp_path / "f.npz").read_bytes())
        assert list(back) == list(arrays)
        for name, array in arrays.items():
            assert back[name].dtype == array.dtype
            assert np.array_equal(back[name], array)

    def test_object_arrays_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_npz(tmp_path / "f.npz", {"o": np.asarray([{"a": 1}], dtype=object)})
        assert list(tmp_path.iterdir()) == []


class TestSparseRows:
    """features.npz's sparse rows, written and read through ScriptCorpus."""

    def _arrays(self):
        return {"shape": np.asarray([3, 4]), "indptr": np.asarray([0, 2, 2, 3]),
                "indices": np.asarray([1, 3, 0], dtype=np.int32),
                "data": np.asarray([2.0, 1.0, 5.0], dtype=np.float32),
                "labels": np.asarray([True, False, False]),
                "fp_bitmasks": np.asarray([1, 0, 0], dtype=np.uint8),
                "script_ids": np.asarray(["s0", "s1", "s2"])}

    def _corpus(self):
        return ScriptCorpus.from_arrays(self._arrays(), CATALOG, PLACEMENTS)

    def test_dense(self):
        x = self._corpus().X.toarray()
        assert x.dtype == np.float32
        assert np.array_equal(x, [[0, 2, 0, 1], [0, 0, 0, 0], [5, 0, 0, 0]])

    def test_arrays_round_trip(self, tmp_path):
        corpus = self._corpus()
        arrays = corpus.to_arrays()
        assert list(arrays) == list(self._arrays())
        write_npz(tmp_path / "f.npz", arrays)
        back = ScriptCorpus.from_arrays(read_npz((tmp_path / "f.npz").read_bytes()),
                                        CATALOG, PLACEMENTS)
        assert back.script_ids == corpus.script_ids
        assert back.X.indices.dtype == np.int32
        assert np.array_equal(back.X.toarray(), corpus.X.toarray())
        assert np.array_equal(back.labels, corpus.labels)
        assert np.array_equal(back.fp_bitmasks, corpus.fp_bitmasks)
        assert np.array_equal(back.domain_rows["x.com"], [0, 2])
        assert np.array_equal(back.domain_rows["y.com"], [1])

    @pytest.mark.parametrize("name, value", [
        ("indptr", np.asarray([0, 2, 1, 3])),
        ("indices", np.asarray([1, 4, 0], dtype=np.int32)),
        ("shape", np.asarray([4, 4])),
        ("labels", np.asarray([True, False])),
    ])
    def test_inconsistent_arrays_are_refused(self, name, value):
        arrays = self._corpus().to_arrays()
        arrays[name] = value
        with pytest.raises(InvalidInput):
            ScriptCorpus.from_arrays(arrays, CATALOG, PLACEMENTS)
