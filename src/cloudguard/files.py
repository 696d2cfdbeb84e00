"""Whole text files in and out. A file that cannot be read, or is not UTF-8
text, raises the caller's error class naming the file, so the CLI exits with
that reader's code; a failed write raises FilesystemError."""

import json
import os

from .errors import FilesystemError


def read_text(path, error: type[Exception], what: str) -> str:
    """The text of ``path``, newlines translated to "\\n"."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {what} {path}: not UTF-8 text ({exc})") from exc


def read_json(path, error: type[Exception], what: str):
    """The JSON document in ``path``; ``error`` also when it is not JSON,
    which includes the ``NaN``, ``Infinity`` and ``-Infinity`` that
    ``json.loads`` would otherwise accept."""
    text = read_text(path, error, what)

    def reject(name):
        raise error(f"{what} {path} is not valid JSON: {name} is not a number")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` as the whole file, its newlines untranslated."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise FilesystemError(f"cannot write {path}: {exc}") from exc


def make_dir(path: str) -> str:
    """Create ``path`` and its parents as needed; returns ``path``.
    FilesystemError unless it then is a writable directory."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise FilesystemError(f"cannot create output dir {path}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise FilesystemError(f"output dir is not writable: {path}")
    return path
