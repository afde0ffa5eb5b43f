"""The file helpers every command runs before it computes: reading and
shape-checking JSON documents, atomic writes, video ids, the byte level of
the float64 base64 codec (`seqdata.f8_array` views its bytes as an array)
and the loss check. `naming` adds each error's context (file, line, video,
epoch), and `writing` names the output whose write failed.

`json_b64` writes a JSON object with one base64 field, a dataset's sample
line or a `profiles.json` video: base64 needs no JSON escape, so the field is
spliced between the dumps of the keys around it, and only the small fields
pass through the string escaper.

This module imports no numpy, so `import cslaudit` and the commands that
only read and write documents (`corrupt`, `heatmap`, `--help`, a config
error) run without it.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import re
import struct
import sys

from .errors import DataError, NumericError, SchemaError

_BAD_ID_CHAR = re.compile(r'[/\\,"\x00-\x1f\x7f-\x9f]')


def check_id(vid) -> None:
    """Raise SchemaError unless `vid` can name a video: the id names its
    heatmap file and is written unquoted into audit.csv."""
    if not isinstance(vid, str) or vid in ("", ".", "..") \
            or _BAD_ID_CHAR.search(vid):
        raise SchemaError(
            f"sample id {vid!r} must be a non-empty string other than '.' or "
            f"'..', without '/', '\\', ',', '\"' or control characters")


# type of an example value -> (its JSON kind in words, plural, test of a value).
# type() refuses bools; the bound refuses NaN, infinities and ints too big for
# float().
_KINDS = {
    int: ("a non-negative integer", "non-negative integers",
          lambda v: type(v) is int and v >= 0),
    float: ("a finite number", "finite numbers",
            lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    str: ("a non-empty string", "non-empty strings",
          lambda v: type(v) is str and v != ""),
}


def ints_within(v, lo, hi) -> bool:
    """Whether v is a list (or tuple) of ints i with lo <= i < hi, tested in
    C, with no Python function call per item; type() refuses bools."""
    return type(v) in (list, tuple) and set(map(type, v)) <= {int} \
        and (not v or lo <= min(v) and max(v) < hi)


def json_kind(example) -> tuple:
    """_KINDS entry for the kind of example, a list's built from its first
    item's; a tuple passes for a list."""
    if type(example) is not list:
        return _KINDS[type(example)]
    _, items, test = json_kind(example[0])
    return (f"a list of {items}", f"lists of {items}",
            lambda v: type(v) in (list, tuple) and all(map(test, v)))


def check_json(value, example, where: str, error: type) -> None:
    """Raise error naming the field at fault (`where`, then `.key` or `[i]`)
    unless value has example's shape: every key of an object (others pass),
    a list of objects like a one-object list's, else example's json_kind."""
    if type(example) is dict:
        if type(value) is not dict:
            raise error(f"{where} must be a JSON object, "
                        f"got {type(value).__name__}")
        for k, item in example.items():
            if k not in value:
                raise error(f"{where} lacks {k!r}")
            check_json(value[k], item, f"{where}.{k}", error)
        return
    if type(example) is list and type(example[0]) is dict:
        what = "a list of JSON objects"
    else:
        what, _, test = json_kind(example)
        if test(value):  # a list in one pass; its bad item is sought below
            return
    if type(example) is not list or type(value) not in (list, tuple):
        shown = type(value).__name__ if isinstance(value, (dict, list, tuple)) \
            else json.dumps(value)
        raise error(f"{where} must be {what}, not {shown}")
    for i, item in enumerate(value):
        check_json(item, example[0], f"{where}[{i}]", error)


def read_json(path: str, error: type, missing: str):
    """The JSON value in the file at path: error(missing) if there is none,
    error naming path (and line) if it is a directory, not UTF-8 or JSON."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (FileNotFoundError, NotADirectoryError) as e:
        raise error(missing) from e
    except IsADirectoryError as e:
        raise error(f"{path}: is a directory") from e
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from e
    except json.JSONDecodeError as e:
        raise error(f"{path}: line {e.lineno}: not valid JSON ({e.msg})") from e
    except (ValueError, RecursionError) as e:  # an int too long, too deep
        raise error(f"{path}: not valid JSON ({e})") from e


@contextlib.contextmanager
def naming(prefix: str, *types: type):
    """An error of one of types raised in the block is raised again as its
    own type, its message preceded by `<prefix>: `."""
    try:
        yield
    except types as e:
        raise type(e)(f"{prefix}: {e}") from e


@contextlib.contextmanager
def writing(path: str):
    """An OSError raised in the block is a DataError naming path, the output
    whose write failed: `cannot write <path>: <strerror>`."""
    try:
        yield
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror}") from e


@contextlib.contextmanager
def atomic_path(path: str):
    """Yield the temp path to write path's content to: renamed over path when
    the block ends, removed if it raises; under writing(path)."""
    tmp = path + ".tmp"
    with writing(path):
        try:
            yield tmp
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


def write_file(path: str, *parts: bytes) -> None:
    """Write the parts, in order, as the whole file at path (atomic_path)."""
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.writelines(parts)


def make_dir(path: str) -> None:
    """os.makedirs(path, exist_ok=True), under writing(path)."""
    with writing(path):
        os.makedirs(path, exist_ok=True)


def json_b64(obj: dict, key: str, raw: bytes) -> bytes:
    """json.dumps(obj with key: the base64 of raw, sort_keys=True) as bytes.

    Base64's alphabet needs no JSON escape, so the string is spliced in at
    its sorted place between the dumps of the keys before and after it; only
    the small fields pass through the escaper. `key` must not be in obj.
    """
    head = json.dumps({k: v for k, v in obj.items() if k < key},
                      sort_keys=True)[:-1]
    tail = json.dumps({k: v for k, v in obj.items() if k > key},
                      sort_keys=True)[1:]
    return b"".join((head.encode(), b", " * (head != "{"),
                     json.dumps(key).encode(), b': "', base64.b64encode(raw),
                     b'"', b", " * (tail != "}"), tail.encode()))


def f8_bytes(text, shape: tuple[int, int], name: str) -> bytes:
    """The bytes of the rows x cols little-endian float64 array whose
    base64 is `text` (as json_b64 writes it), their count checked.

    A rows of -1 takes as many rows as the bytes hold, at least one. A
    SchemaError begins with `name`.
    """
    if not isinstance(text, str):
        raise SchemaError(f"{name} must be a base64 string, "
                          f"got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:  # binascii.Error, or a non-ASCII character
        raise SchemaError(f"{name} is not valid base64 ({e})") from e
    rows, cols = shape
    if rows < 0:
        if not raw or len(raw) % (8 * cols):
            raise SchemaError(f"{name} holds {len(raw)} bytes, not a positive "
                              f"multiple of {8 * cols} (8 * {cols} columns)")
    elif len(raw) != 8 * rows * cols:
        raise SchemaError(f"{name} holds {len(raw)} bytes, not "
                          f"{8 * rows * cols} (8 * {rows} x {cols})")
    return raw


# The last byte of a little-endian float64 holds its sign bit and the top 7
# bits of its exponent: below 0x7f, the value is finite and non-negative;
# unless it is 0x7f or 0xff, it is finite.
_PLAIN_TOP_BYTES = bytes(range(0x7f))
_FINITE_TOP_BYTES = _PLAIN_TOP_BYTES + bytes(range(0x80, 0xff))


def f8_finite(raw: bytes) -> bool:
    """Whether every little-endian float64 in raw is finite; values near the
    top of the range (top byte 0x7f or 0xff) are unpacked to tell."""
    return not raw[7::8].translate(None, _FINITE_TOP_BYTES) or all(map(
        math.isfinite, struct.unpack(f"<{len(raw) // 8}d", raw)))


def loss_rows(raw: bytes, epochs, T: int, vid) -> list:
    """The len(epochs) rows of T little-endian float64 losses in raw, as
    sequences of floats; NumericError names a non-finite loss's first epoch,
    then DataError a negative loss. Top bytes all below 0x7f need no test."""
    # a view of raw makes no float object until a value is read
    values = memoryview(raw).cast("d") if sys.byteorder == "little" \
        else struct.unpack(f"<{len(raw) // 8}d", raw)
    rows = [values[e * T:e * T + T] for e in range(len(epochs))]
    if raw[7::8].translate(None, _PLAIN_TOP_BYTES):
        for epoch, row in zip(epochs, rows):
            if not all(map(math.isfinite, row)):
                raise NumericError(
                    f"video {vid}: non-finite loss at epoch {epoch}")
        if min(map(min, rows)) < 0:
            raise DataError(f"video {vid}: negative loss")
    return rows
