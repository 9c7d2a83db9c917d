"""Artifact file primitives: atomic replacement and deterministic npz files."""

import io
import zipfile

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


def _grown(data: bytes) -> bytes:
    """A one-member zip whose member claims one byte more than it holds."""
    size = int.from_bytes(data[18:22], "little") + 1  # the local header's two sizes
    return data[:18] + size.to_bytes(4, "little") * 2 + data[26:]


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

    def test_members_equal_what_np_load_reads(self, tmp_path):
        arrays = {"ids": np.asarray(["a#1", "bbb#2", ""]), "none": np.asarray([], dtype=str),
                  "i32": np.arange(-3, 4, dtype=np.int32), "i64": np.asarray([2**40, -1]),
                  "shape": np.asarray([3, 4], dtype=np.int64),
                  "f32": np.asarray([0.5, -2.0, np.inf], dtype=np.float32),
                  "flags": np.asarray([True, False]), "u8": np.asarray([1, 255], dtype=np.uint8),
                  "empty_f32": np.empty(0, np.float32), "empty_i32": np.empty(0, np.int32),
                  "empty_bool": np.empty(0, bool), "scalar": np.asarray(7, dtype=np.int64),
                  "grid": np.arange(6, dtype=np.int64).reshape(2, 3)}
        write_npz(tmp_path / "f.npz", arrays)
        data = (tmp_path / "f.npz").read_bytes()
        back = read_npz(data)
        with np.load(tmp_path / "f.npz", allow_pickle=False) as npz:
            assert list(back) == npz.files == list(arrays)
            for name in npz.files:
                expected = npz[name]
                assert back[name].dtype == expected.dtype and back[name].shape == expected.shape
                assert np.array_equal(back[name], expected)
        assert not back["i32"].flags.writeable  # a view into the file's bytes

    @staticmethod
    def _zip(member, compression=zipfile.ZIP_STORED, **write):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", compression) as zf, zf.open("a.npy", "w") as fh:
            np.lib.format.write_array(fh, member, **write)
        return buffer.getvalue()

    def test_a_plain_stored_zip_of_one_array_reads(self):
        assert np.array_equal(read_npz(self._zip(np.arange(4)))["a"], np.arange(4))

    @pytest.mark.parametrize("make, reason", [
        (lambda z: z(np.asarray([{"a": 1}], dtype=object), allow_pickle=True),
         "holds objects"),
        (lambda z: z(np.arange(4), zipfile.ZIP_DEFLATED), "is compressed"),
        (lambda z: z(np.asfortranarray(np.arange(6).reshape(2, 3))), "Fortran order"),
        (lambda z: _grown(z(np.arange(4))), "runs past the members"),
        (lambda z: b"PK\x03\x05" + z(np.arange(4))[4:], "bad local header signature"),
        (lambda z: z(np.arange(4))[:-1], "not a zip file"),
    ], ids=["object-dtype", "compressed", "fortran-order", "past-the-bytes",
            "bad-signature", "no-end-record"])
    def test_what_write_npz_never_writes_is_refused(self, make, reason):
        with pytest.raises(InvalidInput, match=reason):
            read_npz(make(self._zip))

    def test_an_array_that_does_not_fill_its_member_is_refused(self):
        data = bytearray(self._zip(np.arange(4, dtype=np.int64)))
        at = data.index(b"(4,)")
        data[at:at + 4] = b"(5,)"  # the header claims more than the member holds
        with pytest.raises(InvalidInput, match="does not fill it"):
            read_npz(bytes(data))


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

    @pytest.mark.parametrize("ids", [np.asarray([b"s0", b"s1", b"s2"]), np.arange(3),
                                     np.asarray([["s0", "s1", "s2"]])],
                             ids=["bytes", "ints", "2-d"])
    def test_script_ids_must_be_a_1d_unicode_array(self, ids):
        arrays = self._corpus().to_arrays()
        arrays["script_ids"] = ids
        with pytest.raises(InvalidInput, match="script_ids must be a 1-d unicode array"):
            ScriptCorpus.from_arrays(arrays, CATALOG, PLACEMENTS)

    def test_the_corpus_keeps_no_view_into_the_file(self, tmp_path):
        write_npz(tmp_path / "f.npz", self._corpus().to_arrays())
        data = (tmp_path / "f.npz").read_bytes()
        back = ScriptCorpus.from_arrays(read_npz(data), CATALOG, PLACEMENTS)
        for array in (back.X.data, back.X.indices, back.X.indptr, back.labels,
                      back.fp_bitmasks):
            assert array.flags.owndata and array.flags.writeable

    def test_an_unknown_script_names_the_first_domain_listing_it(self):
        placements = {"x.com": ["s0"], "y.com": ["s1", "s9"], "z.com": ["s9"]}
        with pytest.raises(InvalidInput, match="domain 'y.com' lists unknown script 's9'"):
            ScriptCorpus.from_arrays(self._corpus().to_arrays(), CATALOG, placements)
