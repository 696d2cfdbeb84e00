"""Single-file npz checkpoints for model parameters plus a JSON metadata blob.

The metadata travels inside the archive as a UTF-8 byte array under the key
``meta_json``; parameter arrays keep their flat ``"<layer index>.<field>"``
names. Loading verifies shape and dtype of every array and reports the first
offending field by name.
"""

import json
import zipfile

import numpy as np

from ..errors import CheckpointError, FilesystemError

_META_KEY = "meta_json"


def save_params(path: str, params: dict[str, np.ndarray], meta: dict) -> None:
    """Write parameters and metadata to ``path`` as an uncompressed npz archive.

    float64 weights barely compress, and inflating them dominated loading;
    ``load_params`` reads compressed archives as well. FilesystemError when
    ``path`` cannot be written.
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


def load_params(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read back ``(params, meta)``. Raises CheckpointError on any mismatch."""
    try:
        with np.load(path) as archive:
            if _META_KEY not in archive:
                raise CheckpointError(f"{path}: missing {_META_KEY!r} entry")
            try:
                meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(f"{path}: corrupt metadata ({exc})") from exc
            params = {}
            for name in archive.files:
                if name == _META_KEY:
                    continue
                arr = archive[name]
                if arr.dtype != np.float64:
                    raise CheckpointError(
                        f"{path}: parameter {name!r} has dtype {arr.dtype}, expected float64"
                    )
                params[name] = arr
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint file not found: {path}") from exc
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"{path}: unreadable archive ({exc})") from exc
    return params, meta


def restore_into(model, params: dict[str, np.ndarray], path: str = "<checkpoint>") -> None:
    """Copy loaded arrays into a model, naming the first field that disagrees."""
    current = model.parameters()
    for name in current:
        if name not in params:
            raise CheckpointError(f"{path}: missing parameter {name!r}")
    for name in params:
        if name not in current:
            raise CheckpointError(f"{path}: unexpected parameter {name!r}")
    for name, arr in params.items():
        if current[name].shape != arr.shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} shape {arr.shape} != model shape "
                f"{current[name].shape}"
            )
    for name, arr in params.items():
        current[name][...] = arr
