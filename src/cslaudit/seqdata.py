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
included); a read refuses non-finite frames, naming the line, and a write
refuses them, naming the sample. A sample line is written as bytes by
`fileio.json_b64`: json.dumps of the small fields with the frames' base64
spliced in at its sorted place, so the escaper never scans the frames; the
CLI's `profiles.json` writes its losses the same way. `fileio` also holds the
codec's decoding, the JSON reader, shape check, atomic writer and id check.
Files in the retired `csl-seqdata/1` format (frames as decimal text) are
refused; regenerate them with `cslaudit gen`.

Reading, checking, corrupting and writing a dataset need no numpy, so
`corrupt` never loads it: a sample holds its fields as a file does, the
frames as bytes and the labels and mask as lists of ints
(`SequenceSample`), and `train` and the replay build arrays of them where
they compute. The corruption stream is numpy's `default_rng(spec.seed)`,
drawn in pure Python (`DefaultRng`): the same draws, so the same files. The
grammar, dataset and corruption spec are plain classes, not dataclasses:
`dataclasses` imports `inspect`, which no other part of `corrupt` needs.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import math
import struct
import zlib
from collections.abc import Iterator

from .errors import ConfigError, DataError, ParseError, SchemaError
from .fileio import atomic_path, check_id, check_json, f8_bytes, f8_finite, \
    ints_within, json_b64, naming

FORMAT_TAG = "csl-seqdata/2"

SPLITS = ("train", "val", "test")

# Exclusive upper bound of a drawn integer: numpy's integers() is int64.
INT64_END = 2**63


class _Record:
    """A record of named fields, its attributes in declaration order:
    equal to a record of its class with equal fields."""

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) \
            else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class PhaseGrammar(_Record):
    """Generative recipe for one family of phase-annotated sequences:
    `class_means` is C rows of d floats, `phase_order` a tuple."""

    def __init__(self, num_classes: int, feature_dim: int, class_means,
                 feature_noise_sigma: float, phase_order, duration_min: int,
                 duration_max: int, boundary_blend: int = 3):
        try:  # floats, as a float64 array's .tolist() held them
            means = tuple(tuple(map(float, row)) for row in class_means)
        except (TypeError, ValueError) as e:
            raise ConfigError("class_means must be a numeric matrix") from e
        if len({len(row) for row in means}) > 1:  # a ragged nested list
            raise ConfigError("class_means must be a numeric matrix")
        self.num_classes, self.feature_dim = num_classes, feature_dim
        self.class_means, self.feature_noise_sigma = means, feature_noise_sigma
        self.phase_order = tuple(phase_order)
        self.duration_min, self.duration_max = duration_min, duration_max
        self.boundary_blend = boundary_blend
        self.validate()

    def validate(self) -> None:
        C, d = self.num_classes, self.feature_dim
        if C < 2:
            raise ConfigError(f"num_classes must be >= 2, got {C}")
        if d < 1:
            raise ConfigError(f"feature_dim must be >= 1, got {d}")
        means = self.class_means
        shape = (len(means), *{len(row) for row in means})
        if shape != (C, d):
            raise ConfigError(f"class_means shape {shape} != ({C}, {d})")
        if not all(map(math.isfinite, itertools.chain(*means))):
            raise ConfigError("class_means must be finite")
        if not 0 <= self.feature_noise_sigma < math.inf:  # false for NaN
            raise ConfigError("feature_noise_sigma must be finite and "
                              "nonnegative")
        if sorted(self.phase_order) != list(range(C)):
            raise ConfigError(
                f"phase_order {self.phase_order} is not a permutation of 0..{C - 1}")
        if self.duration_min < 1:
            raise ConfigError("duration_min must be >= 1")
        if self.duration_min > self.duration_max:
            raise ConfigError("duration_min must be <= duration_max")
        if self.duration_max >= INT64_END:
            raise ConfigError("duration_max must be below 2**63")
        if not 0 <= self.boundary_blend < self.duration_min:
            raise ConfigError("boundary_blend must satisfy 0 <= blend < duration_min")
        for a in range(C):
            for b in range(a + 1, C):
                if means[a] == means[b]:
                    raise ConfigError(f"class_means {a} and {b} coincide")

    def to_dict(self) -> dict:
        """The fields in declaration order, as JSON values."""
        return dict(vars(self), class_means=list(map(list, self.class_means)),
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


def _array(value, dtype: str):
    import numpy as np
    return np.asarray(value, dtype=dtype)


def _int_list(v, dtype: str) -> list:
    """A label or mask vector as a list of ints: a list of ints as it is,
    anything else (an array, a list of numpy ints) as a numpy array of
    `dtype` holds it."""
    return v if type(v) is list and set(map(type, v)) <= {int} \
        else _array(v, dtype).tolist()


class SequenceSample(_Record):
    """One annotated sequence, each field as a dataset file holds it:
    `frames` the T x `dim` feature matrix as row-major little-endian float64
    bytes, `labels` and `error_mask` (1 = ground-truth annotation error)
    lists of T ints, `corruption` the injected corruption's parameters or
    None. An array given for a field is converted once; where numpy
    computes, `f8_array` views the frames without a copy. Samples are equal
    when every field is, the frames bit for bit."""

    def __init__(self, id: str, frames, labels, error_mask,
                 corruption: dict | None = None, dim: int | None = None):
        check_id(id)
        if type(frames) is not bytes:
            try:
                frames = _array(frames, "<f8")
            except (TypeError, ValueError) as e:  # ragged rows, non-numbers
                raise SchemaError(f"sample {id}: frames must be a T x dim "
                                  f"matrix of numbers ({e})") from e
            if frames.ndim != 2:
                raise SchemaError(f"sample {id}: frames must be a T x dim "
                                  f"matrix, not of shape {frames.shape}")
            dim, frames = frames.shape[1], frames.tobytes()
        if type(dim) is not int or dim < 1 or len(frames) % (8 * dim):
            raise SchemaError(f"sample {id}: {len(frames)} frame bytes are "
                              f"not rows of dim={dim!r} float64s")
        T = len(frames) // (8 * dim)
        labels, mask = _int_list(labels, "i8"), _int_list(error_mask, "i1")
        if not (len(labels) == len(mask) == T):
            raise SchemaError(
                f"sample {id}: frames ({T}), labels ({len(labels)}) "
                f"and error_mask ({len(mask)}) lengths disagree")
        self.id, self.frames, self.labels, self.error_mask = \
            id, frames, labels, mask
        self.corruption, self.num_frames, self.dim = corruption, T, dim


class Dataset(_Record):
    """One split's samples, each of the grammar's dim and classes."""

    def __init__(self, grammar: PhaseGrammar, samples: list[SequenceSample],
                 split: str, seed: int):
        if split not in SPLITS:
            raise ConfigError(f"split must be one of {SPLITS}, got {split!r}")
        check_json(seed, 0, "seed", ConfigError)  # as read_dataset does
        ids = [s.id for s in samples]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate sample ids in dataset")
        for s in samples:
            if s.dim != grammar.feature_dim:
                raise SchemaError(
                    f"sample {s.id}: feature dim {s.dim} "
                    f"!= grammar feature_dim {grammar.feature_dim}")
            if not ints_within(s.labels, 0, grammar.num_classes):
                raise SchemaError(f"sample {s.id}: labels out of range")
        self.grammar, self.samples, self.split, self.seed = \
            grammar, samples, split, seed

    def __len__(self) -> int:
        return len(self.samples)


class CorruptionSpec(_Record):
    """What to corrupt: `kind` "mislabel" or "disorder", the share of videos,
    the segment length range (mislabel only) and the stream's seed; vars()
    holds these five fields."""

    def __init__(self, kind: str, video_fraction: float,
                 segment_len_min: int = 1, segment_len_max: int = 1,
                 seed: int = 0):
        if kind not in ("mislabel", "disorder"):
            raise ConfigError(f"unknown corruption kind {kind!r}")
        if not 0 < video_fraction <= 1:
            raise ConfigError("video_fraction must lie in (0, 1]")
        if segment_len_min > segment_len_max:
            raise ConfigError("segment_len_min must be <= segment_len_max")
        if segment_len_min < 1:
            raise ConfigError("segment_len_min must be >= 1")
        if hasattr(seed, "__index__"):  # a numpy int seeds default_rng
            seed = seed.__index__()
        check_json(seed, 0, "seed", ConfigError)
        if segment_len_max >= INT64_END:
            raise ConfigError("segment_len_max must be below 2**63")
        self.kind, self.video_fraction = kind, video_fraction
        self.segment_len_min, self.segment_len_max = \
            segment_len_min, segment_len_max
        self.seed = seed


# ---------------------------------------------------------------------------
# the corruption stream

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


class DefaultRng:
    """numpy.random.default_rng(seed) in pure Python: `integers` and `choice`
    return what numpy's Generator returns, call for call, in any order.

    SeedSequence(seed) hashes the seed into PCG64's 128-bit state and
    increment; a 64-bit draw is the XSL-RR output of the next state; a
    32-bit draw takes a word's low half and keeps its high half for the next
    32-bit draw (64-bit draws leave it there)."""

    MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit multiplier

    def __init__(self, seed: int):
        h = 0x43b0d7e5

        def hashmix(v: int) -> int:
            nonlocal h
            h, v = h * 0x931e8875 & _M32, v ^ h
            v = v * h & _M32
            return v ^ v >> 16

        def mix(x: int, y: int) -> int:
            r = 0xca01f9dd * x - 0x4973f715 * y & _M32
            return r ^ r >> 16

        words = [seed >> i & _M32 for i in range(0, seed.bit_length() or 1, 32)]
        pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
        for src, dst in itertools.product(range(4), repeat=2):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for w, dst in itertools.product(words[4:], range(4)):
            pool[dst] = mix(pool[dst], hashmix(w))
        h, out = 0x8b51f9dd, []  # generate_state(4, np.uint64)
        for w in pool * 2:
            h, w = h * 0x58f38ded & _M32, w ^ h
            w = w * h & _M32
            out.append(w ^ w >> 16)
        # four uint64, low word first: two for the state, two for the stream
        u = [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]
        self._inc = (u[2] << 64 | u[3]) << 1 & _M128 | 1
        self._state = ((u[0] << 64 | u[1]) + self._inc) * self.MULT \
            + self._inc & _M128
        self._half = None

    def _next64(self) -> int:
        s = self._state = self._state * self.MULT + self._inc & _M128
        w, r = (s >> 64 ^ s) & _M64, s >> 122
        return (w >> r | w << 64 - r) & _M64

    def _next32(self) -> int:
        if self._half is None:
            w = self._next64()
            self._half = w >> 32
            return w & _M32
        w, self._half = self._half, None
        return w

    def _bounded(self, rng: int) -> int:
        """An int in [0, rng]: Lemire's method on 32-bit draws for rng below
        2**32 - 1, one raw 32-bit draw at it, on 64-bit draws above it."""
        if rng == 0 or rng == _M32:
            return rng and self._next32()
        bits, draw = (32, self._next32) if rng < _M32 else (64, self._next64)
        n = rng + 1
        m = draw() * n
        while m % 2**bits < 2**bits % n:  # the low bits: rejection
            m = draw() * n
        return m >> bits

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), high - low <= 2**64 - 1."""
        return low + self._bounded(high - 1 - low)

    def choice(self, n: int, k: int) -> list[int]:
        """k distinct ints of range(n) (replace=False): Floyd's sampling,
        then a Fisher-Yates shuffle of the k; for n above 10000 and k above
        n // 50, the last k of a partial shuffle of range(n)."""
        if n > 10000 and k > n // 50:
            out, first = list(range(n)), max(n - k, 1)
        else:
            out, first, seen = [], 1, set()
            for j in range(n - k, n):
                v = self._bounded(j)
                out.append(j if v in seen else v)
                seen.add(out[-1])
        for i in reversed(range(first, len(out))):
            j = self._bounded(i)
            out[i], out[j] = out[j], out[i]
        return out[len(out) - k:]


# ---------------------------------------------------------------------------
# generation and corruption


def label_runs(labels: list[int]) -> list[tuple[int, int, int]]:
    """Maximal constant runs of a list of labels as (class, start, end)
    triples."""
    runs = []
    start = 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[start]:
            runs.append((labels[start], start, t))
            start = t
    return runs


def _phase_rows(grammar: PhaseGrammar):
    """The grammar's mean vector of each phase in order (C, d), and the
    2 * blend rows around each phase boundary, which step linearly from the
    previous phase's mean to the next one's (C-1, 2 * blend, d)."""
    import numpy as np
    mus = np.array(grammar.class_means)[list(grammar.phase_order)]
    b = grammar.boundary_blend
    w = (np.arange(1, 2 * b + 1) / (2 * b + 1))[:, None]
    return mus, (1 - w) * mus[:-1, None] + w * mus[1:, None]


def _phase_means(mus, blends, durations: list[int]):
    """Per-frame mean vectors for one sequence from _phase_rows' arrays: each
    phase's mean repeated over its duration, then each boundary's blend
    rows, a later boundary's rows written last."""
    import numpy as np
    means = np.repeat(mus, durations, axis=0)
    b = blends.shape[1] // 2
    if b > 0:
        for lo, rows in zip(np.cumsum(durations[:-1]) - b, blends):
            means[lo:lo + 2 * b] = rows
    return means


def generate_dataset(grammar: PhaseGrammar, n_videos: int, split: str,
                     seed: int) -> Dataset:
    """Generate clean sequences: every video runs through all phases in order."""
    import numpy as np
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
        samples.append(SequenceSample(
            id=f"{split}-{i:04d}",
            frames=means + noise,
            labels=np.repeat(order, durations).tolist(),
            error_mask=[0] * T,
        ))
    return Dataset(grammar=grammar, samples=samples, split=split, seed=seed)


def _swap(seq, a: int, b: int, c: int, row: int = 1):
    """seq with its row blocks [a, b) and [b, c) swapped."""
    a, b, c = a * row, b * row, c * row
    return seq[:a] + seq[b:c] + seq[a:b] + seq[c:]


def inject_mislabeling(sample: SequenceSample, spec: CorruptionSpec,
                       num_classes: int, rng: DefaultRng) -> SequenceSample:
    """Relabel one contiguous segment with a single wrong class."""
    if spec.kind != "mislabel":
        raise ConfigError("inject_mislabeling requires a mislabel spec")
    if sample.corruption is not None:
        raise SchemaError(f"sample {sample.id} is already corrupted")
    T = sample.num_frames
    if T < spec.segment_len_min:
        raise DataError(
            f"sample {sample.id}: T={T} < segment_len_min={spec.segment_len_min}")
    length = int(rng.integers(spec.segment_len_min, spec.segment_len_max + 1))
    length = min(length, T)
    start = int(rng.integers(0, T - length + 1))
    end = start + length
    labels = sample.labels
    from_class = labels[start]
    # uniform over Y \ {from_class}
    draw = int(rng.integers(0, num_classes - 1))
    to_class = draw if draw < from_class else draw + 1
    return SequenceSample(
        sample.id, sample.frames,
        labels[:start] + [to_class] * length + labels[end:],
        [0] * start + [1] * length + [0] * (T - end),
        corruption={"kind": "mislabel", "start": start, "end": end,
                    "from_class": from_class, "to_class": to_class},
        dim=sample.dim)


def inject_disordering(sample: SequenceSample, spec: CorruptionSpec,
                       rng: DefaultRng) -> SequenceSample:
    """Swap two adjacent phase blocks as units (frames together with labels).

    Each block stays internally self-consistent, so per-frame label semantics
    are preserved while the transcript order violates the canonical phase
    progression.
    """
    if spec.kind != "disorder":
        raise ConfigError("inject_disordering requires a disorder spec")
    if sample.corruption is not None:
        raise SchemaError(f"sample {sample.id} is already corrupted")
    labels = sample.labels
    runs = label_runs(labels)
    if len(runs) < 2:
        raise DataError(
            f"sample {sample.id}: needs >= 2 label runs, has {len(runs)}")
    j = int(rng.integers(0, len(runs) - 1))
    _, start_a, end_a = runs[j]
    _, start_b, end_b = runs[j + 1]
    return SequenceSample(
        sample.id, _swap(sample.frames, start_a, start_b, end_b,
                         8 * sample.dim),
        _swap(labels, start_a, start_b, end_b),
        [0] * start_a + [1] * (end_b - start_a)
        + [0] * (sample.num_frames - end_b),
        corruption={"kind": "disorder", "start_a": start_a, "end_a": end_a,
                    "start_b": start_b, "end_b": end_b},
        dim=sample.dim)


def corrupt_dataset(ds: Dataset, spec: CorruptionSpec) -> Dataset:
    """Corrupt round(fraction * N) videos, chosen without replacement, with
    the draws of numpy's default_rng(spec.seed) (DefaultRng)."""
    if ds.split == "val":
        raise ConfigError("corruption targets train or test splits, not val")
    n = len(ds.samples)
    rng = DefaultRng(spec.seed)
    chosen = set(rng.choice(n, math.floor(spec.video_fraction * n + 0.5)))
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


def f8_array(raw: bytes, shape: tuple[int, int]):
    """The rows x cols float64 array of little-endian float64 bytes
    (fileio.f8_bytes checks them; rows -1 takes all): a read-only view that
    shares raw's memory, so it copies nothing and lives as long as raw."""
    import numpy as np
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _sample_line(s: SequenceSample) -> bytes:
    if not f8_finite(s.frames):  # read_dataset would refuse it
        raise SchemaError(f"sample {s.id}: frames hold a non-finite value")
    return json_b64({"id": s.id, "labels": s.labels,
                     "error_mask": s.error_mask,
                     "corruption": s.corruption}, "frames", s.frames) + b"\n"


def write_dataset(ds: Dataset, path: str, header_extra: dict | None = None) -> None:
    """Write JSONL atomically (atomic_path), one line at a time. An unwritable
    path raises DataError, a NaN or inf frame SchemaError; a failed write
    leaves neither the temp file nor a changed `path`."""
    header = json.dumps(_header_dict(ds, header_extra), sort_keys=True)
    with atomic_path(path) as tmp, open(tmp, "wb") as f, \
            (gzip.GzipFile(path, "wb", fileobj=f, mtime=0)
             if path.endswith(".gz") else contextlib.nullcontext(f)) as out:
        # a gzip header without the write time or the temp name: a rerun
        # writes the same bytes; the GzipFile closes before its file
        out.write(header.encode() + b"\n")
        out.writelines(map(_sample_line, ds.samples))
        # GzipFile.flush ends a deflate block, as the recorded .gz bytes
        # (tests/test_cli.py CORRUPT_SHA256) do before the last block
        out.flush()


def _sample_from_json(obj, d: int) -> SequenceSample:
    """Validate one parsed sample line; the reader's naming adds the line."""
    if not isinstance(obj, dict):
        raise SchemaError("sample must be a JSON object, "
                          f"got {type(obj).__name__}")
    for key in ("id", "frames", "labels", "error_mask"):
        if key not in obj:
            raise SchemaError(f"sample is missing field {key!r}")
    raw = f8_bytes(obj["frames"], (-1, d), "frames")
    if not f8_finite(raw):
        raise SchemaError("frames hold a non-finite value")
    labels, mask = obj["labels"], obj["error_mask"]
    # non-empty lists of int64s, as numpy read them (and, unlike numpy, no
    # bools); Dataset checks the labels' range
    if not (labels and ints_within(labels, -INT64_END, INT64_END)):
        raise SchemaError("labels must be a list of integers")
    if not (mask and ints_within(mask, 0, 2)):
        if not (mask and ints_within(mask, -INT64_END, INT64_END)):
            raise SchemaError("error_mask must be a list of integers")
        raise SchemaError("error_mask values must be 0 or 1")
    return SequenceSample(obj["id"], raw, labels, mask, obj.get("corruption"),
                          dim=d)


def read_dataset(path: str) -> Dataset:
    """The dataset in a `csl-seqdata/2` file, parsed one line at a time.
    Every error names the path; a parse or schema error also the line."""
    try:
        with naming(path, ParseError, SchemaError), (
                gzip.open(path, "rt", encoding="utf-8") if path.endswith(".gz")
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


# The header fields read besides `format`; from_dict checks the grammar's.
HEADER_SHAPE = {"split": "x", "seed": 0, "grammar": {}}


def _json_line(raw: str, what: str):
    """json.loads(raw); ParseError for any fault the decoder raises."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as e:  # syntax, too deep, long int
        raise ParseError(f"bad {what} JSON: {getattr(e, 'msg', e)}") from e


def _parse_dataset(lines: Iterator[str]) -> Dataset:
    header = next(lines, None)
    with naming("line 1", ParseError, SchemaError):
        if header is None:
            raise ParseError("empty dataset file")
        header = _json_line(header, "header")
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt == "csl-seqdata/1":
            raise ParseError(
                f"the file is in the retired format 'csl-seqdata/1'; "
                f"regenerate it with `cslaudit gen` or write it with "
                f"seqdata.write_dataset (format {FORMAT_TAG!r})")
        if fmt != FORMAT_TAG:
            raise ParseError(f"expected format {FORMAT_TAG!r}")
        check_json(header, HEADER_SHAPE, "header", SchemaError)
        if header["split"] not in SPLITS:
            raise SchemaError(f"header.split must be one of {SPLITS}, "
                              f"got {header['split']!r}")
        try:
            grammar = PhaseGrammar.from_dict(header["grammar"])
        except SchemaError as e:  # each begins with "grammar"
            raise SchemaError(f"header.{e}") from e
    samples = []
    for ln, raw in enumerate(lines, start=2):
        if raw.strip():
            with naming(f"line {ln}", ParseError, SchemaError):
                samples.append(_sample_from_json(_json_line(raw, "sample"),
                                                 grammar.feature_dim))
    return Dataset(grammar=grammar, samples=samples,
                   split=header["split"], seed=header["seed"])


def grammar_fingerprint(grammar: PhaseGrammar) -> str:
    import hashlib  # here, not at the top: eval and heatmap never hash
    blob = json.dumps(grammar.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def dataset_fingerprint(ds: Dataset) -> str:
    """sha256 of a dataset's content, hashed from its fields' bytes.

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
        put(s.num_frames.to_bytes(8, "little") + s.dim.to_bytes(8, "little"))
        put(s.frames)
        put(struct.pack(f"<{s.num_frames}q", *s.labels))
        put(struct.pack(f"<{s.num_frames}b", *s.error_mask))
        put(json.dumps(s.corruption, sort_keys=True).encode())
    return h.hexdigest()
