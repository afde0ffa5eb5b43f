"""Synthetic phase-annotated sequences: generation, corruption, persistence.

A "video" is a T x d feature matrix plus per-frame class labels that follow a
canonical phase progression. Two corruption types are supported: semantic
mislabeling (a contiguous segment gets a wrong class, features untouched) and
temporal disordering (two adjacent phase blocks are swapped as units, so every
frame keeps a label consistent with its content but the transcript violates
the canonical order).

Datasets persist as UTF-8 JSON Lines in the `csl-seqdata/2` format,
gzipped when the path ends in ".gz", and are written atomically (temp file,
then rename). Line 1 is the header object: `format` ("csl-seqdata/2"),
`grammar` (`PhaseGrammar.to_dict()`), `split`, `seed` and any extra keys the
writer adds (`corrupt` adds `corruption_spec`). Each following line is one
sample object:

- `id`: string, non-empty, not `.` or `..`, without `/`, `\\`, `,`, `"` or
  control characters (`check_id`);
- `frames`: the T x d feature matrix as one string, the padded standard
  base64 (RFC 4648) of its bytes as little-endian float64, row-major; d is
  the grammar's `feature_dim`, so T = decoded bytes / (8 d);
- `labels`: list of T integer class ids;
- `error_mask`: list of T integers, 1 where the annotation is a ground-truth
  error and 0 elsewhere;
- `corruption`: the injected corruption's parameters, or null.

Base64 of the raw bytes round-trips every float64 (NaN payloads and -0.0
included), so a read returns exactly the arrays that were written.
`encode_f8`/`decode_f8` are this codec; the CLI's `profiles.json` stores its
loss matrices with it too. Files in
the retired `csl-seqdata/1` format, which held frames as nested lists of
decimal numbers, are refused; regenerate them with `cslaudit gen` or write
them again with `write_dataset`.

To audit features of your own, build one `SequenceSample` per video, put them
in a `Dataset` with a `PhaseGrammar` whose `num_classes` and `feature_dim`
match them, and call `write_dataset`.
"""

from __future__ import annotations

import base64
import binascii
import gzip
import hashlib
import json
import os
import re
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConfigError, DataError, ParseError, SchemaError,
                     SequenceTooShortError)

FORMAT_TAG = "csl-seqdata/2"

SPLITS = ("train", "val", "test")

_BAD_ID_CHAR = re.compile(r'[/\\,"\x00-\x1f\x7f-\x9f]')


def check_id(vid) -> None:
    """Raise SchemaError unless `vid` can name a video: the id names its
    heatmap file and is written unquoted into audit.csv."""
    if not isinstance(vid, str) or vid in ("", ".", "..") \
            or _BAD_ID_CHAR.search(vid):
        raise SchemaError(
            f"sample id {vid!r} must be a non-empty string other than '.' or "
            f"'..', without '/', '\\', ',', '\"' or control characters")


@dataclass(frozen=True)
class PhaseGrammar:
    """Generative recipe for one family of phase-annotated sequences."""

    num_classes: int
    feature_dim: int
    class_means: np.ndarray  # (C, d)
    feature_noise_sigma: float
    phase_order: tuple[int, ...]
    duration_min: int
    duration_max: int
    boundary_blend: int = 3

    def __post_init__(self):
        object.__setattr__(self, "class_means",
                           np.asarray(self.class_means, dtype=np.float64))
        object.__setattr__(self, "phase_order", tuple(self.phase_order))
        self.validate()

    def validate(self) -> None:
        C, d = self.num_classes, self.feature_dim
        if C < 2:
            raise ConfigError(f"num_classes must be >= 2, got {C}")
        if d < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {d}")
        if self.class_means.shape != (C, d):
            raise ConfigError(
                f"class_means shape {self.class_means.shape} != ({C}, {d})")
        if self.feature_noise_sigma < 0:
            raise ConfigError("feature_noise_sigma must be nonnegative")
        if sorted(self.phase_order) != list(range(C)):
            raise ConfigError(
                f"phase_order {self.phase_order} is not a permutation of 0..{C - 1}")
        if self.duration_min < 1:
            raise ConfigError("duration_min must be >= 1")
        if self.duration_min > self.duration_max:
            raise ConfigError("duration_min must be <= duration_max")
        if not 0 <= self.boundary_blend < self.duration_min:
            raise ConfigError("boundary_blend must satisfy 0 <= blend < duration_min")
        for a in range(C):
            for b in range(a + 1, C):
                if np.array_equal(self.class_means[a], self.class_means[b]):
                    raise ConfigError(f"class_means {a} and {b} coincide")

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "feature_dim": self.feature_dim,
            "class_means": self.class_means.tolist(),
            "feature_noise_sigma": self.feature_noise_sigma,
            "phase_order": list(self.phase_order),
            "duration_min": self.duration_min,
            "duration_max": self.duration_max,
            "boundary_blend": self.boundary_blend,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseGrammar":
        try:
            return cls(
                num_classes=int(d["num_classes"]),
                feature_dim=int(d["feature_dim"]),
                class_means=np.asarray(d["class_means"], dtype=np.float64),
                feature_noise_sigma=float(d["feature_noise_sigma"]),
                phase_order=tuple(int(x) for x in d["phase_order"]),
                duration_min=int(d["duration_min"]),
                duration_max=int(d["duration_max"]),
                boundary_blend=int(d.get("boundary_blend", 3)),
            )
        except KeyError as e:
            raise SchemaError(f"grammar is missing field {e}") from e
        except (TypeError, ValueError) as e:
            raise SchemaError(f"grammar has a malformed field ({e})") from e
        except ConfigError as e:  # from validate(): the data is at fault
            raise SchemaError(f"grammar is invalid ({e})") from e

    def __eq__(self, other):
        if not isinstance(other, PhaseGrammar):
            return NotImplemented
        return (self.num_classes == other.num_classes
                and self.feature_dim == other.feature_dim
                and np.array_equal(self.class_means, other.class_means)
                and self.feature_noise_sigma == other.feature_noise_sigma
                and self.phase_order == other.phase_order
                and self.duration_min == other.duration_min
                and self.duration_max == other.duration_max
                and self.boundary_blend == other.boundary_blend)


@dataclass
class SequenceSample:
    """One annotated sequence with its ground-truth corruption mask."""

    id: str
    frames: np.ndarray       # (T, d) float64
    labels: np.ndarray       # (T,) int64
    error_mask: np.ndarray   # (T,) int8, 1 = ground-truth annotation error
    corruption: dict | None = None

    def __post_init__(self):
        check_id(self.id)
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.error_mask = np.asarray(self.error_mask, dtype=np.int8)
        T = self.frames.shape[0]
        if not (len(self.labels) == len(self.error_mask) == T):
            raise SchemaError(
                f"sample {self.id}: frames ({T}), labels ({len(self.labels)}) "
                f"and error_mask ({len(self.error_mask)}) lengths disagree")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SequenceSample):
            return NotImplemented
        return (self.id == other.id
                and np.array_equal(self.frames, other.frames)
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.error_mask, other.error_mask)
                and self.corruption == other.corruption)


@dataclass
class Dataset:
    grammar: PhaseGrammar
    samples: list[SequenceSample]
    split: str
    seed: int

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ConfigError(f"split must be one of {SPLITS}, got {self.split!r}")
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate sample ids in dataset")
        for s in self.samples:
            if s.frames.shape[1] != self.grammar.feature_dim:
                raise SchemaError(
                    f"sample {s.id}: feature dim {s.frames.shape[1]} "
                    f"!= grammar feature_dim {self.grammar.feature_dim}")
            if s.labels.size and (s.labels.min() < 0
                                  or s.labels.max() >= self.grammar.num_classes):
                raise SchemaError(f"sample {s.id}: labels out of range")

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.grammar == other.grammar and self.split == other.split
                and self.seed == other.seed and self.samples == other.samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str                 # "mislabel" | "disorder"
    video_fraction: float
    segment_len_min: int = 1  # mislabel only
    segment_len_max: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("mislabel", "disorder"):
            raise ConfigError(f"unknown corruption kind {self.kind!r}")
        if not 0 < self.video_fraction <= 1:
            raise ConfigError("video_fraction must lie in (0, 1]")
        if self.segment_len_min > self.segment_len_max:
            raise ConfigError("segment_len_min must be <= segment_len_max")
        if self.segment_len_min < 1:
            raise ConfigError("segment_len_min must be >= 1")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "video_fraction": self.video_fraction,
            "segment_len_min": self.segment_len_min,
            "segment_len_max": self.segment_len_max,
            "seed": self.seed,
        }


def label_runs(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal constant runs of a label vector as (class, start, end) triples."""
    runs = []
    start = 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[start]:
            runs.append((int(labels[start]), start, t))
            start = t
    return runs


def _phase_means(grammar: PhaseGrammar, durations: list[int]) -> np.ndarray:
    """Per-frame mean vectors for one sequence, with linear boundary blending."""
    order = grammar.phase_order
    T = sum(durations)
    means = np.empty((T, grammar.feature_dim))
    pos = 0
    starts = []
    for j, dur in enumerate(durations):
        means[pos:pos + dur] = grammar.class_means[order[j]]
        starts.append(pos)
        pos += dur
    b = grammar.boundary_blend
    if b > 0:
        for j in range(1, len(durations)):
            lo = starts[j] - b
            mu_prev = grammar.class_means[order[j - 1]]
            mu_next = grammar.class_means[order[j]]
            for k in range(2 * b):
                w = (k + 1) / (2 * b + 1)
                means[lo + k] = (1 - w) * mu_prev + w * mu_next
    return means


def generate_dataset(grammar: PhaseGrammar, n_videos: int, split: str,
                     seed: int) -> Dataset:
    """Generate clean sequences: every video runs through all phases in order."""
    if n_videos < 1:
        raise ConfigError("n_videos must be >= 1")
    grammar.validate()
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_videos):
        durations = [int(rng.integers(grammar.duration_min, grammar.duration_max + 1))
                     for _ in range(grammar.num_classes)]
        means = _phase_means(grammar, durations)
        T = means.shape[0]
        noise = rng.normal(0.0, grammar.feature_noise_sigma, size=means.shape) \
            if grammar.feature_noise_sigma > 0 else 0.0
        frames = means + noise
        labels = np.repeat(np.array(grammar.phase_order, dtype=np.int64), durations)
        samples.append(SequenceSample(
            id=f"{split}-{i:04d}",
            frames=frames,
            labels=labels,
            error_mask=np.zeros(T, dtype=np.int8),
        ))
    return Dataset(grammar=grammar, samples=samples, split=split, seed=seed)


def inject_mislabeling(sample: SequenceSample, spec: CorruptionSpec,
                       num_classes: int, rng: np.random.Generator) -> SequenceSample:
    """Relabel one contiguous segment with a single wrong class."""
    if spec.kind != "mislabel":
        raise ConfigError("inject_mislabeling requires a mislabel spec")
    if sample.corruption is not None:
        raise ValueError(f"sample {sample.id} is already corrupted")
    T = sample.num_frames
    if T < spec.segment_len_min:
        raise SequenceTooShortError(
            f"sample {sample.id}: T={T} < segment_len_min={spec.segment_len_min}")
    length = int(rng.integers(spec.segment_len_min, spec.segment_len_max + 1))
    length = min(length, T)
    start = int(rng.integers(0, T - length + 1))
    end = start + length
    from_class = int(sample.labels[start])
    # uniform over Y \ {from_class}
    draw = int(rng.integers(0, num_classes - 1))
    to_class = draw if draw < from_class else draw + 1
    labels = sample.labels.copy()
    labels[start:end] = to_class
    mask = np.zeros(T, dtype=np.int8)
    mask[start:end] = 1
    return SequenceSample(
        id=sample.id, frames=sample.frames, labels=labels, error_mask=mask,
        corruption={"kind": "mislabel", "start": start, "end": end,
                    "from_class": from_class, "to_class": to_class})


def inject_disordering(sample: SequenceSample, spec: CorruptionSpec,
                       rng: np.random.Generator) -> SequenceSample:
    """Swap two adjacent phase blocks as units (frames together with labels).

    Each block stays internally self-consistent, so per-frame label semantics
    are preserved while the transcript order violates the canonical phase
    progression.
    """
    if spec.kind != "disorder":
        raise ConfigError("inject_disordering requires a disorder spec")
    if sample.corruption is not None:
        raise ValueError(f"sample {sample.id} is already corrupted")
    runs = label_runs(sample.labels)
    if len(runs) < 2:
        raise SequenceTooShortError(
            f"sample {sample.id}: needs >= 2 label runs, has {len(runs)}")
    j = int(rng.integers(0, len(runs) - 1))
    _, start_a, end_a = runs[j]
    _, start_b, end_b = runs[j + 1]
    perm = np.concatenate([np.arange(start_b, end_b), np.arange(start_a, end_a)])
    frames = sample.frames.copy()
    labels = sample.labels.copy()
    frames[start_a:end_b] = sample.frames[perm]
    labels[start_a:end_b] = sample.labels[perm]
    mask = np.zeros(sample.num_frames, dtype=np.int8)
    mask[start_a:end_b] = 1
    return SequenceSample(
        id=sample.id, frames=frames, labels=labels, error_mask=mask,
        corruption={"kind": "disorder", "start_a": start_a, "end_a": end_a,
                    "start_b": start_b, "end_b": end_b})


def corrupt_dataset(ds: Dataset, spec: CorruptionSpec) -> Dataset:
    """Corrupt round(fraction * N) videos, chosen without replacement."""
    if ds.split == "val":
        raise ConfigError("corruption targets train or test splits, not val")
    n = len(ds.samples)
    n_corrupt = int(np.floor(spec.video_fraction * n + 0.5))
    rng = np.random.default_rng(spec.seed)
    chosen = set(rng.choice(n, size=n_corrupt, replace=False).tolist())
    out = []
    for i, s in enumerate(ds.samples):
        if i not in chosen:
            out.append(s)
        elif spec.kind == "mislabel":
            out.append(inject_mislabeling(s, spec, ds.grammar.num_classes, rng))
        else:
            out.append(inject_disordering(s, spec, rng))
    return Dataset(grammar=ds.grammar, samples=out, split=ds.split, seed=ds.seed)


# ---------------------------------------------------------------------------
# persistence


def _open_text(path: str, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _header_dict(ds: Dataset, extra: dict | None = None) -> dict:
    header = {"format": FORMAT_TAG, "grammar": ds.grammar.to_dict(),
              "split": ds.split, "seed": ds.seed}
    if extra:
        header.update(extra)
    return header


def encode_f8(arr: np.ndarray) -> str:
    """An array as one string: the padded standard base64 (RFC 4648) of its
    bytes as little-endian float64, row-major."""
    return base64.b64encode(np.asarray(arr).astype("<f8").tobytes()).decode("ascii")


def decode_f8(text, shape: tuple[int, int], name: str) -> np.ndarray:
    """The rows x cols float64 array that encode_f8 wrote into `text`.

    A rows of -1 takes as many rows as the bytes hold, at least one. The
    array is a writable, C-contiguous copy. A SchemaError begins with `name`.
    """
    if not isinstance(text, str):
        raise SchemaError(f"{name} must be a base64 string, "
                          f"got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as e:
        raise SchemaError(f"{name} is not valid base64 ({e})") from e
    rows, cols = shape
    if rows < 0:
        if not raw or len(raw) % (8 * cols):
            raise SchemaError(f"{name} holds {len(raw)} bytes, not a positive "
                              f"multiple of {8 * cols} (8 * {cols} columns)")
    elif len(raw) != 8 * rows * cols:
        raise SchemaError(f"{name} holds {len(raw)} bytes, not "
                          f"{8 * rows * cols} (8 * {rows} x {cols})")
    # astype copies, so the array is writable and owns its memory
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _sample_dict(s: SequenceSample) -> dict:
    return {"id": s.id, "frames": encode_f8(s.frames),
            "labels": s.labels.tolist(),
            "error_mask": s.error_mask.tolist(),
            "corruption": s.corruption}


def write_dataset(ds: Dataset, path: str, header_extra: dict | None = None) -> None:
    """Write JSONL atomically (temp file + rename). A path whose directory
    does not exist raises DataError and leaves no file behind."""
    lines = [json.dumps(_header_dict(ds, header_extra), sort_keys=True)]
    lines.extend(json.dumps(_sample_dict(s), sort_keys=True) for s in ds.samples)
    tmp = str(path) + ".tmp"
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(tmp, "wt", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    except (FileNotFoundError, NotADirectoryError) as e:
        raise DataError(f"cannot write dataset {path}: its directory does "
                        f"not exist") from e
    os.replace(tmp, path)


def _sample_from_json(obj, ln: int, d: int) -> SequenceSample:
    """Validate one parsed sample line; SchemaError names the line."""
    if not isinstance(obj, dict):
        raise SchemaError(f"line {ln}: sample must be a JSON object, "
                          f"got {type(obj).__name__}")
    for key in ("id", "frames", "labels", "error_mask"):
        if key not in obj:
            raise SchemaError(f"line {ln}: sample is missing field {key!r}")
    frames = decode_f8(obj["frames"], (-1, d), f"line {ln}: frames")
    ints = {}
    for key in ("labels", "error_mask"):
        try:
            arr = np.asarray(obj[key])
        except ValueError:  # ragged nesting
            arr = None
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise SchemaError(f"line {ln}: {key} must be a list of integers")
        ints[key] = arr
    if np.any((ints["error_mask"] != 0) & (ints["error_mask"] != 1)):
        raise SchemaError(f"line {ln}: error_mask values must be 0 or 1")
    try:
        return SequenceSample(id=obj["id"], frames=frames, labels=ints["labels"],
                              error_mask=ints["error_mask"],
                              corruption=obj.get("corruption"))
    except SchemaError as e:
        raise SchemaError(f"line {ln}: {e}") from e


def _read_lines(path: str) -> list[str]:
    """The lines of a dataset file; DataError/ParseError name the path."""
    try:
        with _open_text(path, "r") as f:
            return f.read().splitlines()
    except FileNotFoundError as e:
        raise DataError(f"no dataset at {path}; run gen first") from e
    except IsADirectoryError as e:
        raise DataError(f"dataset path {path} is a directory") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from e
    except (gzip.BadGzipFile, EOFError, zlib.error) as e:
        raise ParseError(f"{path}: not a complete gzip file ({e})") from e


def read_dataset(path: str) -> Dataset:
    """The dataset in a `csl-seqdata/2` file. Every ParseError or SchemaError
    message begins with the path, then the line at fault."""
    lines = _read_lines(path)
    try:
        return _parse_dataset(lines)
    except (ParseError, SchemaError) as e:
        e.args = (f"{path}: {e}",)  # keeps the type, line and traceback
        raise


def _parse_dataset(lines: list[str]) -> Dataset:
    if not lines:
        raise ParseError("empty dataset file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ParseError(f"bad header JSON: {e.msg}", line=1) from e
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt == "csl-seqdata/1":
        raise ParseError(
            f"the file is in the retired format 'csl-seqdata/1'; regenerate "
            f"it with `cslaudit gen` or write it with seqdata.write_dataset "
            f"(format {FORMAT_TAG!r})", line=1)
    if fmt != FORMAT_TAG:
        raise ParseError(f"expected format {FORMAT_TAG!r}", line=1)
    for key in ("split", "seed"):
        if key not in header:
            raise SchemaError(f"line 1: header is missing field {key!r}")
    if header["split"] not in SPLITS:
        raise SchemaError(f"line 1: split must be one of {SPLITS}, "
                          f"got {header['split']!r}")
    if type(header["seed"]) is not int:  # bool is an int subclass
        raise SchemaError(f"line 1: seed must be an integer, "
                          f"got {header['seed']!r}")
    try:
        grammar = PhaseGrammar.from_dict(header.get("grammar", {}))
    except SchemaError as e:
        raise SchemaError(f"line 1: {e}") from e
    samples = []
    for ln, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad sample JSON: {e.msg}", line=ln) from e
        samples.append(_sample_from_json(obj, ln, grammar.feature_dim))
    return Dataset(grammar=grammar, samples=samples,
                   split=header["split"], seed=header["seed"])


def grammar_fingerprint(grammar: PhaseGrammar) -> str:
    blob = json.dumps(grammar.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def dataset_fingerprint(ds: Dataset) -> str:
    """sha256 of a dataset's content, hashed from its arrays.

    Recipe: a sequence of length-framed fields, each its byte length as a
    little-endian uint64 followed by the bytes. First the header JSON (keys
    `format`, `grammar`, `split`, `seed`; sorted keys, default separators),
    then for each sample in order: `id` (UTF-8), the frames shape (T, d as
    little-endian uint64), `frames` (little-endian float64, row-major),
    `labels` (little-endian int64), `error_mask` (int8) and `corruption`
    (JSON with sorted keys, `null` when absent).
    """
    h = hashlib.sha256()

    def put(field: bytes) -> None:
        h.update(len(field).to_bytes(8, "little"))
        h.update(field)

    put(json.dumps(_header_dict(ds), sort_keys=True).encode())
    for s in ds.samples:
        put(s.id.encode())
        put(np.array(s.frames.shape, dtype="<u8").tobytes())
        put(s.frames.astype("<f8").tobytes())
        put(s.labels.astype("<i8").tobytes())
        put(s.error_mask.astype("i1").tobytes())
        put(json.dumps(s.corruption, sort_keys=True).encode())
    return h.hexdigest()
