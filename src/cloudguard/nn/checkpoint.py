"""Single-file npz checkpoints for model parameters plus a JSON metadata blob.

The metadata travels inside the archive as a UTF-8 byte array under the key
``meta_json``; parameter arrays keep their flat ``"<layer index>.<field>"``
names. Loading verifies every member's CRC-32, dtype, finiteness and shape
and reports the first offending member by name.

``map_params`` reads an archive without copying its arrays: each is a
read-only view of the file as mapped. A graph built around them (each
layer's ``around``, given the arrays ``take`` checks out) writes each weight
once, when the layer's parameter dataclass copies it into aligned memory of
its own; the views are dropped after that. ``load_params`` hands out
copies, which outlive the file.
"""

import io
import json
import mmap
import struct
import zipfile
import zlib

import numpy as np

from ..errors import CheckpointError, FilesystemError

_META_KEY = "meta_json"
_LOCAL_HEADER = struct.Struct("<4s22xHH")  # signature, then name and extra lengths
_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}
_HEADER_PEEK = 12 + 10000  # magic, version and length, then numpy's longest header


def save_params(path: str, params: dict[str, np.ndarray], meta: dict) -> None:
    """Write parameters and metadata to ``path`` as an npz archive of stored
    (uncompressed) members, the only kind ``map_params`` reads: float64
    weights barely compress, and each is read as a view of the mapped file.
    FilesystemError when ``path`` cannot be written.
    """
    if _META_KEY in params:
        raise CheckpointError(f"parameter name {_META_KEY!r} is reserved")
    blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    arrays = {_META_KEY: blob}
    for name, arr in params.items():
        arrays[name] = np.asarray(arr, dtype=np.float64)
    try:
        np.savez(path, **arrays)
    except OSError as exc:
        raise FilesystemError(f"cannot write {path}: {exc}") from exc


def _member(mapped: memoryview, info: zipfile.ZipInfo) -> memoryview:
    """One stored member's bytes, as a view of the mapped file. BadZipFile
    naming the member when it is compressed, its local header is bad or its
    CRC-32 disagrees."""
    if info.compress_type != zipfile.ZIP_STORED:
        raise zipfile.BadZipFile(f"file {info.filename!r} is compressed, not stored")
    signature, name_len, extra_len = _LOCAL_HEADER.unpack_from(mapped, info.header_offset)
    start = info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
    if signature != b"PK\x03\x04" or start + info.file_size > len(mapped):
        raise zipfile.BadZipFile(f"bad local header for file {info.filename!r}")
    data = mapped[start:start + info.file_size]
    if zlib.crc32(data) != info.CRC:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {info.filename!r}")
    return data


def _npy_view(data: memoryview) -> np.ndarray:
    """The array an .npy file's bytes hold, as a view of those bytes."""
    head = io.BytesIO(data[:_HEADER_PEEK])
    version = np.lib.format.read_magic(head)
    if version not in _HEADER_READERS:
        raise ValueError(f"unsupported .npy version {version}")
    shape, fortran_order, dtype = _HEADER_READERS[version](head)
    if dtype.hasobject:
        raise ValueError("object arrays are not parameters")
    return np.frombuffer(data, dtype, count=int(np.prod(shape)), offset=head.tell()) \
        .reshape(shape, order="F" if fortran_order else "C")


def map_params(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read back ``(params, meta)``, each parameter a read-only view of the
    file as mapped. The views are only as good as the file: copy what must
    outlive a rewrite of it. Raises CheckpointError naming the member for a
    compressed member, any mismatch, and a parameter holding a NaN or an
    infinity."""
    try:
        with open(path, "rb") as fh:
            # mapped whole in this one call, not a page fault at a time as it is read
            mapped = memoryview(mmap.mmap(fh.fileno(), 0, prot=mmap.PROT_READ,
                                          flags=mmap.MAP_SHARED | mmap.MAP_POPULATE))
            with zipfile.ZipFile(fh) as archive:
                members = {}
                for info in archive.infolist():
                    if not info.filename.endswith(".npy"):
                        raise CheckpointError(f"{path}: member {info.filename!r} "
                                              f"is not an .npy array")
                    members[info.filename[:-4]] = _npy_view(_member(mapped, info))
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint file not found: {path}") from exc
    except (OSError, ValueError, EOFError, struct.error, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: unreadable archive ({exc})") from exc
    if _META_KEY not in members:
        raise CheckpointError(f"{path}: missing {_META_KEY!r} entry")
    try:
        meta = json.loads(members.pop(_META_KEY).tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt metadata ({exc})") from exc
    # one pass, no temporary: a sum is non-finite only for a NaN, an infinity or an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for name, arr in members.items():
            if arr.dtype != np.float64:
                raise CheckpointError(
                    f"{path}: parameter {name!r} has dtype {arr.dtype}, expected float64"
                )
            if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: parameter {name!r} holds a NaN or an infinity")
    return members, meta


def load_params(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """``map_params`` with every array a writable copy of its own."""
    params, meta = map_params(path)
    return {name: arr.copy() for name, arr in params.items()}, meta


def take(params: dict[str, np.ndarray], prefix: str, shapes: dict[str, tuple],
         path: str) -> dict[str, np.ndarray]:
    """Take one layer's arrays, ``prefix + field`` for each field of
    ``shapes``, out of ``params``; CheckpointError naming the first that is
    missing or of another shape."""
    for field, shape in shapes.items():
        name = prefix + field
        if name not in params:
            raise CheckpointError(f"{path}: missing parameter {name!r}")
        if params[name].shape != shape:
            raise CheckpointError(f"{path}: parameter {name!r} shape {params[name].shape} "
                                  f"!= model shape {shape}")
    return {field: params.pop(prefix + field) for field in shapes}


def check_all_taken(params: dict[str, np.ndarray], path: str) -> None:
    """CheckpointError naming the first parameter no layer took."""
    if params:
        raise CheckpointError(f"{path}: unexpected parameter {next(iter(params))!r}")

