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
reads such a file's members straight from its bytes, as views, and
refuses whatever write_npz never writes; nothing is ever unpickled.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import struct
import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import InvalidInput

ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # the earliest date a zip member can carry
# a zip member's local header: signature, version, flags, method, time, date,
# crc-32, compressed and uncompressed size, name and extra-field lengths
_LOCAL_HEADER = struct.Struct("<4s5H3I2H")
# the end of a zip's central directory: signature, two disk numbers, the
# member count on this disk and in all, the directory's size and offset and
# the comment's length
_END_RECORD = struct.Struct("<4s4H2IH")
_UTF8_NAME = 0x800  # a UTF-8 name: the one flag zipfile sets on a member written to a file


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
    """Every member of a write_npz file, as read-only views into data.

    Only what write_npz writes is read: stored (uncompressed) members
    named <name>.npy, one after another up to the central directory and
    as many as it counts, each one C-order .npy array (format 1.0 or 2.0)
    of a dtype that holds no objects and that fills the member exactly.
    Anything else raises InvalidInput. The members' CRCs are not checked
    again: the caller reads bytes whose sha256 it has checked. A view
    keeps data alive, so copy what should outlive it.
    """
    if len(data) < _END_RECORD.size:
        raise InvalidInput(f"not a zip file: {len(data)} bytes")
    signature, *_, count, _, directory, comment = _END_RECORD.unpack_from(
        data, len(data) - _END_RECORD.size)
    if signature != b"PK\x05\x06" or comment or directory > len(data):
        raise InvalidInput("not a zip file as write_npz writes one: no end record at its end")
    arrays, at = {}, 0
    while at < directory:
        if at + _LOCAL_HEADER.size > directory:
            raise InvalidInput(f"member header at byte {at} runs past the members")
        signature, _, flags, method, _, _, _, size, unpacked, name_size, extra_size = \
            _LOCAL_HEADER.unpack_from(data, at)
        if signature != b"PK\x03\x04":
            raise InvalidInput(f"bad local header signature at byte {at}: {signature!r}")
        start = at + _LOCAL_HEADER.size + name_size + extra_size
        name = data[at + _LOCAL_HEADER.size:at + _LOCAL_HEADER.size + name_size].decode(
            "utf-8", "replace")
        if method != zipfile.ZIP_STORED or size != unpacked or flags & ~_UTF8_NAME:
            raise InvalidInput(f"member {name!r} is compressed, encrypted or streamed")
        if start + size > directory:
            raise InvalidInput(f"member {name!r} runs past the members")
        if not name.endswith(".npy"):
            raise InvalidInput(f"member {name!r} is not a .npy array")
        arrays[name[:-4]] = _npy_view(data, start, start + size, name)
        at = start + size
    if at != directory or len(arrays) != count:
        raise InvalidInput(f"{len(arrays)} members end at byte {at}, but the central "
                           f"directory counts {count} and starts at byte {directory}")
    return arrays


def _npy_view(data: bytes, start: int, stop: int, name: str) -> np.ndarray:
    """The array that data[start:stop], one .npy file, holds; read-only over data."""
    prefix = data[start:start + 12]
    version = tuple(prefix[6:8])
    if prefix[:6] != np.lib.format.MAGIC_PREFIX or version not in ((1, 0), (2, 0)):
        raise InvalidInput(f"member {name!r} is not a .npy array of format 1.0 or 2.0")
    length_size = 2 if version == (1, 0) else 4
    body = start + 8 + length_size + int.from_bytes(prefix[8:8 + length_size], "little")
    header = io.BytesIO(data[start + 8:min(body, stop)])
    try:
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, fortran_order, dtype = read_header(header)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"member {name!r}: {exc}") from None
    if dtype.hasobject or fortran_order:
        raise InvalidInput(f"member {name!r} holds objects or is in Fortran order")
    count = math.prod(shape)
    if body + count * dtype.itemsize != stop:
        raise InvalidInput(f"member {name!r}'s {shape} {dtype} array does not fill it")
    if dtype.itemsize == 0:  # such as np.dtype([]), which np.frombuffer refuses
        return np.empty(shape, dtype)
    return np.frombuffer(data, dtype=dtype, count=count, offset=body).reshape(shape)


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
