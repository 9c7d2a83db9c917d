"""File primitives shared by every artifact writer and reader.

atomic_write gives each artifact all-or-nothing replacement: the bytes
go to a temporary file in the destination's directory, which replaces
the destination only after the writer finished without an exception.
A writer that raises leaves the previous file intact and no temporary
file behind. The replacement survives a crash of the program; no fsync
is made, so it is not a guarantee against losing the machine's power.

write_npz stores named arrays in a zip file whose bytes depend only on
the arrays: members are written uncompressed in the order given, each
stamped with one fixed date, through numpy's .npy format. read_npz
loads such a file without ever unpickling.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # the earliest date a zip member can carry


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a temporary file beside path; replace path with it on success."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if binary:
            fh = open(tmp, "wb")
        else:
            fh = open(tmp, "w", encoding="utf-8", newline="\n")
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_npz(path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write arrays as name.npy members of an uncompressed, fixed-date zip."""
    with atomic_write(path, binary=True) as fh, \
            zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name, array in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=ZIP_EPOCH)
            with zf.open(info, "w") as member:
                np.lib.format.write_array(member, np.ascontiguousarray(array),
                                          allow_pickle=False)


def read_npz(data: bytes) -> dict[str, np.ndarray]:
    """Every member of a write_npz file, from its bytes; object arrays are refused."""
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
