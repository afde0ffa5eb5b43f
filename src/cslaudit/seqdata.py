"""Synthetic phase-annotated sequences: generation, corruption, persistence.

A "video" is a T x d feature matrix plus per-frame class labels that follow a
canonical phase progression. Two corruption types are supported: semantic
mislabeling (a contiguous segment gets a wrong class, features untouched) and
temporal disordering (two adjacent phase blocks are swapped as units, so every
frame keeps a label consistent with its content but the transcript violates
the canonical order).

Datasets persist as UTF-8 JSON Lines in the `csl-seqdata/2` format,
gzipped when the path ends in ".gz". They are read and written one line at
a time, and written atomically (temp file, then rename). Line 1 is the
header object: `format` ("csl-seqdata/2"), `grammar`
(`PhaseGrammar.to_dict()`), `split`, `seed` and any extra keys the writer
adds (`corrupt` adds `corruption_spec`). Each following line is one sample
object:

- `id`: string, non-empty, not `.` or `..`, without `/`, `\\`, `,`, `"` or
  control characters (`fileio.check_id`);
- `frames`: the T x d feature matrix as one string, the padded standard
  base64 (RFC 4648) of its bytes as little-endian float64, row-major, every
  value finite; d is the grammar's `feature_dim`, so T = decoded bytes / (8 d);
- `labels`: list of T integer class ids;
- `error_mask`: list of T integers, 1 where the annotation is a ground-truth
  error and 0 elsewhere;
- `corruption`: the injected corruption's parameters, or null.

Base64 of the raw bytes round-trips every float64 (NaN payloads and -0.0
included), so a read returns exactly the arrays that were written; a read
refuses non-finite frames, naming the line. `encode_f8`/`decode_f8` are this
codec; the CLI's `profiles.json` stores its loss matrices with it too. The
byte level of a read (base64 validity and byte count) is `fileio.f8_bytes`,
which needs no numpy, so `heatmap` reads the losses without it;
`decode_f8` views those checked bytes as an array (`f8_array`). The JSON
reader, shape check, atomic writer and id check live in `fileio` too. Files in
the retired `csl-seqdata/1` format, which held frames as nested lists of
decimal numbers, are refused; regenerate them with `cslaudit gen` or write
them again with `write_dataset`, which writes features of your own too.
"""

from __future__ import annotations

import base64
import gzip
import io
import itertools
import json
import zlib
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (ConfigError, DataError, ParseError, SchemaError,
                     SequenceTooShortError)
from .fileio import atomic_path, check_id, check_json, f8_bytes

FORMAT_TAG = "csl-seqdata/2"

SPLITS = ("train", "val", "test")

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
        try:
            means = np.asarray(self.class_means, dtype=np.float64)
        except ValueError as e:  # a ragged nested list
            raise ConfigError("class_means must be a numeric matrix") from e
        object.__setattr__(self, "class_means", means)
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
        if not np.isfinite(self.class_means).all():
            raise ConfigError("class_means must be finite")
        if not 0 <= self.feature_noise_sigma < np.inf:  # false for NaN
            raise ConfigError("feature_noise_sigma must be finite and "
                              "nonnegative")
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
        """The fields in declaration order, as JSON values."""
        return dict(asdict(self), class_means=self.class_means.tolist(),
                    phase_order=list(self.phase_order))

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseGrammar":
        """The grammar to_dict() wrote (boundary_blend 3 where d lacks it);
        SchemaError names a field not of its kind, or an invalid grammar."""
        d = {"boundary_blend": 3, **d}
        shape = {"num_classes": 0, "feature_dim": 0, "class_means": [[0.0]],
                 "feature_noise_sigma": 0.0, "phase_order": [0],
                 "duration_min": 0, "duration_max": 0, "boundary_blend": 0}
        check_json(d, shape, "grammar", SchemaError)
        try:
            return cls(**{k: d[k] for k in shape})
        except ConfigError as e:  # from validate(): the data is at fault
            raise SchemaError(f"grammar is invalid ({e})") from e

    def __eq__(self, other):
        if not isinstance(other, PhaseGrammar):
            return NotImplemented
        return self.to_dict() == other.to_dict()


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
        check_json(self.seed, 0, "seed", ConfigError)  # as read_dataset does
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


def label_runs(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal constant runs of a label vector as (class, start, end) triples."""
    labels = np.asarray(labels).tolist()  # Python ints index and compare faster
    runs = []
    start = 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[start]:
            runs.append((int(labels[start]), start, t))
            start = t
    return runs


def _phase_rows(grammar: PhaseGrammar) -> tuple[np.ndarray, np.ndarray]:
    """The grammar's mean vector of each phase in order (C, d), and the
    2 * blend rows around each phase boundary, which step linearly from the
    previous phase's mean to the next one's (C-1, 2 * blend, d)."""
    mus = grammar.class_means[list(grammar.phase_order)]
    b = grammar.boundary_blend
    w = (np.arange(1, 2 * b + 1) / (2 * b + 1))[:, None]
    return mus, (1 - w) * mus[:-1, None] + w * mus[1:, None]


def _phase_means(mus: np.ndarray, blends: np.ndarray,
                 durations: list[int]) -> np.ndarray:
    """Per-frame mean vectors for one sequence from _phase_rows' arrays: each
    phase's mean repeated over its duration, then each boundary's blend
    rows, a later boundary's rows written last."""
    means = np.repeat(mus, durations, axis=0)
    b = blends.shape[1] // 2
    if b > 0:
        for lo, rows in zip(np.cumsum(durations[:-1]) - b, blends):
            means[lo:lo + 2 * b] = rows
    return means


def generate_dataset(grammar: PhaseGrammar, n_videos: int, split: str,
                     seed: int) -> Dataset:
    """Generate clean sequences: every video runs through all phases in order."""
    if n_videos < 1:
        raise ConfigError("n_videos must be >= 1")
    rng = np.random.default_rng(seed)
    mus, blends = _phase_rows(grammar)
    order = np.array(grammar.phase_order, dtype=np.int64)
    samples = []
    for i in range(n_videos):
        durations = [int(rng.integers(grammar.duration_min, grammar.duration_max + 1))
                     for _ in range(grammar.num_classes)]
        means = _phase_means(mus, blends, durations)
        T = means.shape[0]
        noise = rng.normal(0.0, grammar.feature_noise_sigma, size=means.shape) \
            if grammar.feature_noise_sigma > 0 else 0.0
        frames = means + noise
        labels = np.repeat(order, durations)
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
        raise SchemaError(f"sample {sample.id} is already corrupted")
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
        raise SchemaError(f"sample {sample.id} is already corrupted")
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
    """The rows x cols float64 array that encode_f8 wrote into `text`, its
    bytes checked by fileio.f8_bytes (a rows of -1 takes as many rows as the
    bytes hold). A SchemaError begins with `name`."""
    return f8_array(f8_bytes(text, shape, name), shape)


def f8_array(raw: bytes, shape: tuple[int, int]) -> np.ndarray:
    """The float64 array of f8_bytes' checked bytes: a writable, C-contiguous
    copy."""
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _sample_dict(s: SequenceSample) -> dict:
    if not np.isfinite(s.frames).all():  # read_dataset would refuse it
        raise SchemaError(f"sample {s.id}: frames hold a non-finite value")
    return {"id": s.id, "frames": encode_f8(s.frames),
            "labels": s.labels.tolist(),
            "error_mask": s.error_mask.tolist(),
            "corruption": s.corruption}


def write_dataset(ds: Dataset, path: str, header_extra: dict | None = None) -> None:
    """Write JSONL atomically (atomic_path), one line at a time. An unwritable
    path raises DataError, a NaN or inf frame SchemaError; a failed write
    leaves neither the temp file nor a changed `path`."""
    rows = itertools.chain([_header_dict(ds, header_extra)],
                           map(_sample_dict, ds.samples))
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        if path.endswith(".gz"):
            # a header without the write time or the temp name: a rerun
            # writes the same bytes
            f = gzip.GzipFile(path, "wb", fileobj=f, mtime=0)
        with io.TextIOWrapper(f, encoding="utf-8") as text:
            text.writelines(json.dumps(row, sort_keys=True) + "\n"
                            for row in rows)


def _sample_from_json(obj, ln: int, d: int) -> SequenceSample:
    """Validate one parsed sample line; SchemaError names the line."""
    if not isinstance(obj, dict):
        raise SchemaError(f"line {ln}: sample must be a JSON object, "
                          f"got {type(obj).__name__}")
    for key in ("id", "frames", "labels", "error_mask"):
        if key not in obj:
            raise SchemaError(f"line {ln}: sample is missing field {key!r}")
    frames = decode_f8(obj["frames"], (-1, d), f"line {ln}: frames")
    if not np.isfinite(frames).all():
        raise SchemaError(f"line {ln}: frames hold a non-finite value")
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


def read_dataset(path: str) -> Dataset:
    """The dataset in a `csl-seqdata/2` file, parsed one line at a time.
    Every error names the path; a parse or schema error also the line."""
    try:
        with (gzip.open(path, "rt", encoding="utf-8") if path.endswith(".gz")
              else open(path, encoding="utf-8")) as f:
            return _parse_dataset(f)
    except (FileNotFoundError, NotADirectoryError) as e:
        raise DataError(f"no dataset at {path}; run gen first") from e
    except IsADirectoryError as e:
        raise DataError(f"dataset path {path} is a directory") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from e
    except (gzip.BadGzipFile, EOFError, zlib.error) as e:
        raise ParseError(f"{path}: not a complete gzip file ({e})") from e
    except (ParseError, SchemaError) as e:
        e.args = (f"{path}: {e}",)  # keeps the type, line and traceback
        raise


# The header fields read besides `format`; from_dict checks the grammar's.
HEADER_SHAPE = {"split": "x", "seed": 0, "grammar": {}}


def _parse_dataset(lines: Iterator[str]) -> Dataset:
    try:
        header = json.loads(next(lines))
    except StopIteration as e:
        raise ParseError("empty dataset file", line=1) from e
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
    check_json(header, HEADER_SHAPE, "line 1: header", SchemaError)
    if header["split"] not in SPLITS:
        raise SchemaError(f"line 1: header.split must be one of {SPLITS}, "
                          f"got {header['split']!r}")
    try:
        grammar = PhaseGrammar.from_dict(header["grammar"])
    except SchemaError as e:  # each begins with "grammar"
        raise SchemaError(f"line 1: header.{e}") from e
    samples = []
    for ln, raw in enumerate(lines, start=2):
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
    import hashlib  # here, not at the top: eval and heatmap never hash
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
    import hashlib
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
