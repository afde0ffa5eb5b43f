import base64
import gzip
import hashlib
import json
import math
import os
import random
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cslaudit as ca
from conftest import frames_of, set_frame
from cslaudit.errors import (ConfigError, DataError, NumericError, ParseError,
                             SchemaError)
from cslaudit.seqdata import (FORMAT_TAG, DefaultRng, _phase_means,
                              _phase_rows, dataset_fingerprint, f8_array,
                              grammar_fingerprint, inject_disordering,
                              inject_mislabeling, label_runs)


def fixed_grammar(C=2, d=3, dur=5, noise=0.0, blend=0):
    means = np.arange(C * d, dtype=float).reshape(C, d) + 1.0
    return ca.PhaseGrammar(
        num_classes=C, feature_dim=d, class_means=means,
        feature_noise_sigma=noise, phase_order=tuple(range(C)),
        duration_min=dur, duration_max=dur, boundary_blend=blend)


class TestGenerate:
    def test_zero_noise_fixed_durations(self):
        g = fixed_grammar()
        ds = ca.generate_dataset(g, 1, "train", seed=0)
        s = ds.samples[0]
        assert s.labels == [0] * 5 + [1] * 5
        frames = frames_of(s)
        assert np.array_equal(frames[:5], np.tile(g.class_means[0], (5, 1)))
        assert np.array_equal(frames[5:], np.tile(g.class_means[1], (5, 1)))
        assert not any(s.error_mask)

    def test_determinism(self, small_grammar):
        a = ca.generate_dataset(small_grammar, 4, "test", seed=42)
        b = ca.generate_dataset(small_grammar, 4, "test", seed=42)
        assert a == b

    def test_seed_changes_output(self, small_grammar):
        a = ca.generate_dataset(small_grammar, 4, "test", seed=1)
        b = ca.generate_dataset(small_grammar, 4, "test", seed=2)
        assert a != b

    def test_c6_durations_and_runs(self):
        means = np.zeros((6, 8))
        means[np.arange(6), np.arange(6)] = 2.0
        g = ca.PhaseGrammar(6, 8, means, 0.5, tuple(range(6)), 40, 80, 3)
        ds = ca.generate_dataset(g, 10, "train", seed=5)
        for s in ds.samples:
            assert 240 <= s.num_frames <= 480
            runs = label_runs(s.labels)
            assert len(runs) == 6
            assert [r[0] for r in runs] == list(range(6))

    def test_zero_noise_zero_blend_features_equal_means(self):
        g = fixed_grammar(C=3, dur=4)
        ds = ca.generate_dataset(g, 3, "train", seed=1)
        for s in ds.samples:
            for t, row in enumerate(frames_of(s)):
                assert np.array_equal(row, g.class_means[s.labels[t]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 5), st.integers(0, 6),
           st.data())
    def test_phase_means_equal_row_loop(self, C, d, blend, data):
        """The broadcast blend is bit-identical to blending row by row, also
        where a phase shorter than 2 * blend lets two boundaries overlap."""
        durations = data.draw(st.lists(st.integers(blend + 1, blend + 9),
                                       min_size=C, max_size=C))
        means = np.random.default_rng(C * 10 + d).normal(size=(C, d))
        g = ca.PhaseGrammar(C, d, means, 0.0, tuple(np.random.default_rng(
            blend).permutation(C)), blend + 1, blend + 9, blend)
        got = _phase_means(*_phase_rows(g), durations)
        want = np.empty((sum(durations), d))
        starts = np.cumsum([0] + durations)
        for j, dur in enumerate(durations):
            want[starts[j]:starts[j] + dur] = means[g.phase_order[j]]
        for j in range(1, C):
            mu_prev = means[g.phase_order[j - 1]]
            mu_next = means[g.phase_order[j]]
            for k in range(2 * blend):
                w = (k + 1) / (2 * blend + 1)
                want[starts[j] - blend + k] = (1 - w) * mu_prev + w * mu_next
        assert np.array_equal(got.view("<u8"), want.view("<u8"))

    def test_invalid_grammar(self):
        with pytest.raises(ConfigError):
            ca.PhaseGrammar(1, 3, np.ones((1, 3)), 0.1, (0,), 5, 5, 0)
        with pytest.raises(ConfigError):
            ca.PhaseGrammar(2, 3, np.ones((2, 3)), 0.1, (0, 1), 5, 5, 0)
        with pytest.raises(ConfigError):
            fg = fixed_grammar()
            ca.PhaseGrammar(2, 3, fg.class_means, 0.1, (0, 1), 5, 4, 0)
        with pytest.raises(ConfigError):
            ca.PhaseGrammar(2, 3, fixed_grammar().class_means, 0.1, (0, 1),
                            5, 5, 5)

    # a NaN noise sigma passed `< 0` and generated noise-free data, and a NaN
    # class mean generated NaN frames; a ragged list was a ValueError
    @pytest.mark.parametrize("means,sigma,text", [
        ([[np.nan, 0, 0], [0, 1, 0]], 0.1, "class_means must be finite"),
        ([[np.inf, 0, 0], [0, 1, 0]], 0.1, "class_means must be finite"),
        ([[1, 0, 0], [0, 1]], 0.1, "class_means must be a numeric matrix"),
        ([[1, 0, 0], [0, 1, 0]], np.nan, "feature_noise_sigma must be finite"),
        ([[1, 0, 0], [0, 1, 0]], np.inf, "feature_noise_sigma must be finite"),
        ([[1, 0, 0], [0, 1, 0]], -1.0, "feature_noise_sigma must be finite"),
    ], ids=["nan-mean", "inf-mean", "ragged-means", "nan-sigma", "inf-sigma",
            "negative-sigma"])
    def test_non_finite_grammar_refused(self, means, sigma, text):
        with pytest.raises(ConfigError, match=text):
            ca.PhaseGrammar(2, 3, means, sigma, (0, 1), 5, 5, 0)


class TestMislabel:
    SPEC = ca.CorruptionSpec("mislabel", 1.0, segment_len_min=3,
                             segment_len_max=3, seed=0)

    def make_sample(self, T=10):
        return ca.SequenceSample(
            id="s0", frames=np.zeros((T, 2)), labels=np.zeros(T, dtype=int),
            error_mask=np.zeros(T, dtype=np.int8))

    def test_forced_segment(self):
        # scan seeds for the draw (start=3, to_class=2) and check the exact
        # structural consequence
        for seed in range(500):
            rng = np.random.default_rng(seed)
            out = inject_mislabeling(self.make_sample(), self.SPEC, 3, rng)
            c = out.corruption
            if c["start"] == 3 and c["to_class"] == 2:
                assert out.labels == [0, 0, 0, 2, 2, 2, 0, 0, 0, 0]
                assert out.error_mask == [0, 0, 0, 1, 1, 1, 0, 0, 0, 0]
                return
        pytest.fail("draw (start=3, to_class=2) never occurred in 500 seeds")

    def test_to_class_never_original(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            out = inject_mislabeling(self.make_sample(), self.SPEC, 4, rng)
            c = out.corruption
            assert c["to_class"] != c["from_class"]
            assert 0 <= c["to_class"] < 4

    def test_frames_untouched(self):
        before = np.random.default_rng(2).normal(size=(10, 2))
        s = ca.SequenceSample("s0", before, [0] * 10, [0] * 10)
        out = inject_mislabeling(s, self.SPEC, 3, np.random.default_rng(3))
        assert np.array_equal(frames_of(out), before)
        assert np.array_equal(frames_of(s), before)

    def test_mask_matches_segment(self):
        rng = np.random.default_rng(4)
        spec = ca.CorruptionSpec("mislabel", 1.0, 2, 6, 0)
        for _ in range(100):
            out = inject_mislabeling(self.make_sample(12), spec, 3, rng)
            c = out.corruption
            assert sum(out.error_mask) == c["end"] - c["start"]
            assert all(out.error_mask[c["start"]:c["end"]])

    def test_already_corrupted_rejected(self):
        out = inject_mislabeling(self.make_sample(), self.SPEC, 3,
                                 np.random.default_rng(0))
        with pytest.raises(SchemaError, match="sample s0 is already corrupted"):
            inject_mislabeling(out, self.SPEC, 3, np.random.default_rng(0))
        with pytest.raises(SchemaError, match="sample s0 is already corrupted"):
            inject_disordering(out, TestDisorder.SPEC, np.random.default_rng(0))

    def test_too_short(self):
        spec = ca.CorruptionSpec("mislabel", 1.0, 20, 30, 0)
        with pytest.raises(DataError, match="T=10 < segment_len_min=20"):
            inject_mislabeling(self.make_sample(10), spec, 3,
                               np.random.default_rng(0))


class TestDisorder:
    SPEC = ca.CorruptionSpec("disorder", 1.0, seed=0)

    def test_two_run_swap(self):
        frames = np.arange(10, dtype=float).reshape(5, 2)
        s = ca.SequenceSample("s0", frames, np.array([0, 0, 0, 1, 1]),
                              np.zeros(5, dtype=np.int8))
        out = inject_disordering(s, self.SPEC, np.random.default_rng(0))
        assert out.labels == [1, 1, 0, 0, 0]
        assert out.error_mask == [1, 1, 1, 1, 1]
        # blocks move as units: frames follow their labels
        assert np.array_equal(frames_of(out), frames[[3, 4, 0, 1, 2]])

    def test_label_multiset_preserved(self, small_dataset):
        rng = np.random.default_rng(1)
        for s in small_dataset.samples:
            out = inject_disordering(s, self.SPEC, rng)
            assert sorted(out.labels) == sorted(s.labels)
            # frame rows are a permutation of the originals
            assert sorted(map(tuple, frames_of(out))) \
                == sorted(map(tuple, frames_of(s)))

    def test_order_violation(self, small_dataset):
        rng = np.random.default_rng(2)
        order = list(small_dataset.grammar.phase_order)
        for s in small_dataset.samples:
            out = inject_disordering(s, self.SPEC, rng)
            transcript = [r[0] for r in label_runs(out.labels)]
            positions = [order.index(c) for c in transcript]
            assert positions != sorted(positions)

    def test_single_run_rejected(self):
        s = ca.SequenceSample("s0", np.zeros((4, 2)),
                              np.zeros(4, dtype=int), np.zeros(4, dtype=np.int8))
        with pytest.raises(DataError, match="needs >= 2 label runs, has 1"):
            inject_disordering(s, self.SPEC, np.random.default_rng(0))


class TestCorruptDataset:
    @pytest.mark.parametrize("spec", [
        ca.CorruptionSpec("mislabel", 0.5, 2, 4, 9),
        ca.CorruptionSpec("mislabel", 1.0, 1, 2**63 - 1, 5),
        ca.CorruptionSpec("mislabel", 0.7, 3, 2**32 + 5, 2**64 + 1),
        ca.CorruptionSpec("disorder", 0.3, seed=11),
        ca.CorruptionSpec("disorder", 1.0, seed=2**40)],
        ids=["mislabel", "segment-len-max-2**63-1", "segment-above-2**32",
             "disorder", "disorder-all"])
    def test_draws_are_numpys(self, small_grammar, spec):
        """corrupt_dataset equals its recipe run on numpy's default_rng:
        choose the videos, then corrupt them in order from the same stream."""
        ds = ca.generate_dataset(small_grammar, 24, "test", seed=2)
        rng = np.random.default_rng(spec.seed)
        n = len(ds.samples)
        chosen = set(rng.choice(n, size=math.floor(spec.video_fraction * n
                                                   + 0.5),
                                replace=False).tolist())
        want = [s if i not in chosen
                else inject_mislabeling(s, spec, 3, rng)
                if spec.kind == "mislabel" else inject_disordering(s, spec, rng)
                for i, s in enumerate(ds.samples)]
        assert ca.corrupt_dataset(ds, spec).samples == want

    @pytest.mark.parametrize("make", [
        lambda v: ca.CorruptionSpec("mislabel", 0.5, 1, v),
        lambda v: ca.PhaseGrammar(2, 3, [[1, 0, 0], [0, 1, 0]], 0.1,
                                  (0, 1), 5, v, 0)],
        ids=["segment_len_max", "duration_max"])
    def test_int64_bound(self, make):
        """The largest bound numpy's int64 integers() takes is valid; one
        more is a ConfigError naming the field."""
        make(2**63 - 1)
        for value in (2**63, 2**70):
            with pytest.raises(ConfigError, match=r"_max must be below 2\*\*63$"):
                make(value)

    @pytest.mark.parametrize("seed,shown", [(-1, "-1"), (2.0, "2.0"),
                                            ("3", '"3"')])
    def test_spec_refuses_a_seed_default_rng_refuses(self, seed, shown):
        with pytest.raises(ConfigError, match=f"^seed must be a non-negative "
                           f"integer, not {shown}$"):
            ca.CorruptionSpec("disorder", 0.5, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), True],
                             ids=["int64", "uint32", "bool"])
    def test_spec_takes_the_ints_default_rng_takes(self, small_grammar, seed):
        """A numpy integer (or a bool) seeds the stream as the Python int it
        equals, as it seeds numpy's default_rng."""
        spec = ca.CorruptionSpec("mislabel", 0.5, 2, 4, seed)
        assert type(spec.seed) is int and spec.seed == seed
        ds = ca.generate_dataset(small_grammar, 12, "test", seed=2)
        want = ca.corrupt_dataset(
            ds, ca.CorruptionSpec("mislabel", 0.5, 2, 4, int(seed)))
        assert ca.corrupt_dataset(ds, spec).samples == want.samples

    def test_half_of_twenty(self):
        g = fixed_grammar(C=3, dur=6)
        ds = ca.generate_dataset(g, 20, "test", seed=0)
        out = ca.corrupt_dataset(ds, ca.CorruptionSpec("mislabel", 0.5, 2, 4, 9))
        assert sum(s.corruption is not None for s in out.samples) == 10

    def test_tenth_of_forty_train(self):
        g = fixed_grammar(C=3, dur=6)
        ds = ca.generate_dataset(g, 40, "train", seed=0)
        out = ca.corrupt_dataset(ds, ca.CorruptionSpec("disorder", 0.1, seed=9))
        assert sum(s.corruption is not None for s in out.samples) == 4

    def test_full_fraction(self):
        g = fixed_grammar(C=3, dur=6)
        ds = ca.generate_dataset(g, 7, "test", seed=0)
        out = ca.corrupt_dataset(ds, ca.CorruptionSpec("mislabel", 1.0, 2, 4, 9))
        assert all(any(s.error_mask) for s in out.samples)

    def test_deterministic(self):
        g = fixed_grammar(C=3, dur=6)
        ds = ca.generate_dataset(g, 12, "test", seed=0)
        spec = ca.CorruptionSpec("mislabel", 0.5, 2, 4, 3)
        assert ca.corrupt_dataset(ds, spec) == ca.corrupt_dataset(ds, spec)

    def test_val_rejected(self):
        g = fixed_grammar(C=3, dur=6)
        ds = ca.generate_dataset(g, 3, "val", seed=0)
        with pytest.raises(ConfigError):
            ca.corrupt_dataset(ds, ca.CorruptionSpec("mislabel", 0.5, 2, 4, 3))

    def test_uncorrupted_untouched(self):
        g = fixed_grammar(C=3, dur=6)
        ds = ca.generate_dataset(g, 10, "test", seed=0)
        out = ca.corrupt_dataset(ds, ca.CorruptionSpec("mislabel", 0.3, 2, 4, 3))
        for orig, new in zip(ds.samples, out.samples):
            if new.corruption is None:
                assert orig == new
                assert not any(new.error_mask)


class TestDefaultRng:
    """The pure-Python stream against numpy's Generator(PCG64(seed)), the
    generator default_rng(seed) returns."""

    # integers() ranges below, at and above 2**32 - 1 (the 32-bit Lemire
    # draw, one raw 32-bit draw, the 64-bit Lemire draw), up to 2**63
    SPANS = [1, 2, 3, 7, 1000, 2**31 + 5, 2**32 - 1, 2**32, 2**32 + 1,
             2**33 + 3, 2**52 + 1, 2**62 + 7, 2**63 - 1]
    SEEDS = [*range(400), 2**32 - 1, 2**32, 2**32 + 7, 2**63 + 1, 2**64,
             2**64 + 3, 2**100 + 9, 2**128 + 1]

    @pytest.mark.parametrize("chunk", range(4))
    def test_equals_numpy_call_for_call(self, chunk):
        """A script of interleaved integers() and choice() calls per seed:
        32-bit draws around 64-bit ones cross the buffered half-word."""
        for seed in self.SEEDS[chunk::4]:
            want = np.random.Generator(np.random.PCG64(seed))
            got = DefaultRng(seed)
            script = random.Random(seed)
            for _ in range(24):
                if script.random() < 0.75:
                    low = script.randrange(0, 50)
                    high = min(low + script.choice(self.SPANS), 2**63)
                    assert got.integers(low, high) == want.integers(low, high)
                else:
                    n = script.randrange(0, 120)
                    k = script.randrange(0, n + 1)
                    assert got.choice(n, k) == want.choice(
                        n, size=k, replace=False).tolist()

    @pytest.mark.parametrize("n,k", [(10001, 200), (10001, 201),
                                     (12000, 12000), (20000, 399),
                                     (20000, 401), (10500, 0)])
    def test_choice_takes_numpys_path(self, n, k):
        """Above n = 10000, k > n // 50 draws from a partial shuffle of
        range(n); otherwise Floyd's algorithm, then a shuffle of the k."""
        for seed in (3, 2**64 + 1):
            want = np.random.default_rng(seed)
            got = DefaultRng(seed)
            assert got.choice(n, k) == want.choice(n, size=k,
                                                   replace=False).tolist()
            assert got.integers(0, 2**40) == want.integers(0, 2**40)


class TestIO:
    def test_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "ds.jsonl"
        ca.write_dataset(small_dataset, str(path))
        assert ca.read_dataset(str(path)) == small_dataset

    def test_round_trip_gzip(self, small_dataset, tmp_path):
        path = tmp_path / "ds.jsonl.gz"
        ca.write_dataset(small_dataset, str(path))
        with gzip.open(path, "rb"):
            pass  # really gzipped
        assert ca.read_dataset(str(path)) == small_dataset

    def test_corrupted_round_trip(self, small_dataset, tmp_path):
        out = ca.corrupt_dataset(
            ca.generate_dataset(small_dataset.grammar, 6, "test", 3),
            ca.CorruptionSpec("mislabel", 0.5, 2, 4, 8))
        path = tmp_path / "c.jsonl"
        ca.write_dataset(out, str(path))
        assert ca.read_dataset(str(path)) == out

    def test_truncated_file(self, small_dataset, tmp_path):
        path = tmp_path / "ds.jsonl"
        ca.write_dataset(small_dataset, str(path))
        text = path.read_text()
        path.write_text(text[:len(text) * 2 // 3])
        with pytest.raises(ParseError):
            ca.read_dataset(str(path))

    def test_length_mismatch_names_sample(self, small_dataset, tmp_path):
        import json
        path = tmp_path / "ds.jsonl"
        ca.write_dataset(small_dataset, str(path))
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["labels"] = obj["labels"][:-1]
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=obj["id"]):
            ca.read_dataset(str(path))

    @pytest.mark.parametrize("bad_id", [
        7, None, "", ".", "..", "sub/dir", "../x", "a\\b", "a,b", 'a"b',
        "a\nb", "a\tb", "a\x7fb", "a\x85b"])
    def test_sample_id_refused(self, bad_id):
        with pytest.raises(SchemaError, match="sample id"):
            ca.SequenceSample(bad_id, np.zeros((2, 2)), [0, 0], [0, 0])

    @pytest.mark.parametrize("good_id", ["s0", "train-0001", "a.b", ".x",
                                         "vidéo 1"])
    def test_sample_id_accepted(self, good_id):
        assert ca.SequenceSample(good_id, np.zeros((2, 2)), [0, 0],
                                 [0, 0]).id == good_id

    @pytest.mark.parametrize("frames,dim", [
        (bytes(16), None), (bytes(16), 0), (bytes(16), -1), (bytes(16), 2.0),
        (bytes(16), True), (bytes(17), 2), (bytes(24), 2), (bytes(8), 2),
        (np.zeros(4), None), (np.zeros((1, 2, 2)), None), (np.float64(0), None),
        (bytearray(16), 2), ([[0.0, 1.0], [2.0]], None), ([["a", "b"]], None),
        ([[1 + 2j, 0.0]], None)],
        ids=["no-dim", "dim-0", "dim-negative", "dim-float", "dim-bool",
             "odd-bytes", "partial-row", "short-row", "1-d", "3-d", "0-d",
             "bytearray", "ragged-rows", "strings", "complex"])
    def test_frames_not_a_matrix_refused(self, frames, dim):
        """Frames that are no T x dim float64 matrix raise SchemaError
        naming the sample, not a bare TypeError, ZeroDivisionError or
        ValueError (numpy's, for rows it cannot convert), and never floor
        T."""
        with pytest.raises(SchemaError, match="^sample s9: .*frame"):
            ca.SequenceSample("s9", frames, [0], [0], dim=dim)

    @pytest.mark.parametrize("labels,mask,match", [
        ([0, 0], [3, 0], "error_mask values must be 0 or 1"),
        ([0, 0], [-1, 0], "error_mask values must be 0 or 1"),
        ([0, 0], [300, 0], "error_mask values must be 0 or 1"),
        ([0, 0], np.array([256, 1]), "error_mask values must be 0 or 1"),
        ([0, 0], [[0], [1]], "error_mask values must be 0 or 1"),
        (["a", "b"], [0, 0], "labels and error_mask must be vectors of int"),
        ([0, 0], ["x", 0], "labels and error_mask must be vectors of int"),
        ([[0, 1], [0]], [0, 0], "labels and error_mask must be vectors of int")],
        ids=["mask-3", "mask-negative", "mask-300", "mask-array-256",
             "mask-2-d", "labels-strings", "mask-string", "labels-ragged"])
    def test_labels_or_mask_the_format_refuses(self, labels, mask, match):
        """A mask other than 0s and 1s, or labels or a mask numpy cannot
        read as integers, raise SchemaError naming the sample, so that
        write_dataset never writes a line read_dataset refuses and
        dataset_fingerprint never meets a mask beyond int8."""
        with pytest.raises(SchemaError, match=f"^sample s9: {match}"):
            ca.SequenceSample("s9", np.zeros((2, 3)), labels, mask)

    def test_frame_bytes_of_whole_rows_accepted(self):
        s = ca.SequenceSample("s0", bytes(32), [0, 1], [0, 0], dim=2)
        assert (s.num_frames, s.dim) == (2, 2)

    @pytest.mark.parametrize("convert", [
        list, lambda a: a.astype(float).tolist(), lambda a: a.tolist()],
        ids=["numpy-ints", "floats", "ints"])
    def test_labels_as_any_int_list(self, tmp_path, convert):
        """Labels and a mask given as a list of numpy ints or of floats hold
        what the int arrays of them hold, and are written as plain ints."""
        labels, mask = np.arange(6) % 2, np.array([0, 1, 1, 0, 0, 0], np.int8)
        s = ca.SequenceSample("s0", np.ones((6, 3)), convert(labels),
                              convert(mask))
        ds = ca.Dataset(fixed_grammar(), [s], "test", 0)
        path = tmp_path / "ds.jsonl"
        ca.write_dataset(ds, str(path))
        row = json.loads(path.read_text().splitlines()[1])
        assert (row["labels"], row["error_mask"]) == (labels.tolist(),
                                                      mask.tolist())
        assert ca.read_dataset(str(path)).samples == [s]
        assert s.labels == labels.tolist() and s.error_mask == mask.tolist()
        assert {type(x) for x in s.labels + s.error_mask} == {int}

    def test_write_is_atomic(self, small_dataset, tmp_path):
        path = tmp_path / "ds.jsonl"
        ca.write_dataset(small_dataset, str(path))
        assert not (tmp_path / "ds.jsonl.tmp").exists()

    def test_fingerprints_stable(self, small_dataset):
        assert dataset_fingerprint(small_dataset) == dataset_fingerprint(small_dataset)
        assert grammar_fingerprint(small_dataset.grammar) != dataset_fingerprint(small_dataset)
        other = ca.generate_dataset(small_dataset.grammar, 6, "train", 8)
        assert dataset_fingerprint(other) != dataset_fingerprint(small_dataset)

    def test_fingerprint_recipe(self, small_dataset, tmp_path):
        # the documented recipe, built independently with struct
        corrupted = ca.corrupt_dataset(small_dataset, ca.CorruptionSpec(
            "mislabel", 0.5, 2, 3, seed=1))
        fields = [json.dumps({"format": FORMAT_TAG,
                              "grammar": corrupted.grammar.to_dict(),
                              "split": "train", "seed": 7},
                             sort_keys=True).encode()]
        for s in corrupted.samples:
            T, d = frames_of(s).shape
            fields += [s.id.encode(), struct.pack("<2Q", T, d),
                       struct.pack(f"<{T * d}d", *frames_of(s).ravel()),
                       struct.pack(f"<{T}q", *s.labels),
                       struct.pack(f"<{T}b", *s.error_mask),
                       json.dumps(s.corruption, sort_keys=True).encode()]
        want = hashlib.sha256(b"".join(
            struct.pack("<Q", len(f)) + f for f in fields)).hexdigest()
        assert any(s.corruption for s in corrupted.samples)
        assert dataset_fingerprint(corrupted) == want
        path = tmp_path / "c.jsonl"
        ca.write_dataset(corrupted, str(path))
        assert dataset_fingerprint(ca.read_dataset(str(path))) == want

    def test_serialization_float_round_trip(self, tmp_path):
        # awkward floats and the smallest subnormal survive the file round
        # trip bit for bit; non-finite ones survive the codec, and a read
        # refuses them as frames
        vals = np.array([[0.1, 1e-300, 1.7976931348623157e308, -0.0],
                         [-1.7976931348623157e308, 5e-324, -5e-324, 1.0]])
        s = ca.SequenceSample("s0", vals, np.array([0, 0]),
                              np.array([0, 0], dtype=np.int8))
        g = fixed_grammar(C=2, d=4)
        ds = ca.Dataset(g, [s], "train", 0)
        path = tmp_path / "f.jsonl"
        ca.write_dataset(ds, str(path))
        back = frames_of(ca.read_dataset(str(path)).samples[0])
        assert np.array_equal(back.view("<u8"), vals.view("<u8"))
        odd = np.array([[np.nan, np.inf, -np.inf, -0.0]])
        text = base64.b64encode(odd.astype("<f8").tobytes()).decode()
        back = f8_array(ca.fileio.f8_bytes(text, (-1, 4), "x"), (-1, 4))
        assert np.array_equal(back.view("<u8"), odd.view("<u8"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["f.jsonl", "f.jsonl.gz"])
    def test_non_finite_frame_refused(self, small_dataset, tmp_path, value,
                                      name):
        path = tmp_path / name
        ca.write_dataset(small_dataset, str(path))
        set_frame(path, 4, (5, 1), value)  # sample 2
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "
                           "line 4: frames hold a non-finite value$"):
            ca.read_dataset(str(path))

    # (grammar field, a header value of another kind than to_dict() writes);
    # int() and float() read most of them as a valid grammar before
    BAD_GRAMMAR_FIELDS = [
        ("num_classes", 2.9), ("num_classes", 3.0), ("feature_dim", "4"),
        ("duration_max", True), ("boundary_blend", 2.0),
        ("feature_noise_sigma", True), ("feature_noise_sigma", "0.3"),
        ("class_means", [[3, 0, 0, "0"], [0, 3, 0, 0], [0, 0, 3, 0]]),
        ("phase_order", [0.7, 1.2, 2.1]), ("phase_order", [0, 1, True]),
        ("phase_order", "012"),
    ]

    @pytest.mark.parametrize("field,value", BAD_GRAMMAR_FIELDS,
                             ids=[f"{f}={v!r}" for f, v in BAD_GRAMMAR_FIELDS])
    def test_header_grammar_field_of_wrong_kind(self, small_dataset, tmp_path,
                                                field, value):
        path = tmp_path / "d.jsonl"
        ca.write_dataset(small_dataset, str(path))
        header, *samples = path.read_text().splitlines(keepends=True)
        header = json.loads(header)
        header["grammar"][field] = value
        path.write_text(json.dumps(header) + "\n" + "".join(samples))
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: "
                           rf"line 1: header\.grammar\.{field}(\[\d+\])* "
                           "must be "):
            ca.read_dataset(str(path))

    def test_format_contract(self, small_dataset, tmp_path):
        # the csl-seqdata/2 layout, decoded without the package's reader
        ds = ca.corrupt_dataset(small_dataset, ca.CorruptionSpec(
            "mislabel", 0.5, 2, 3, seed=1))
        path = tmp_path / "c.jsonl"
        ca.write_dataset(ds, str(path), header_extra={"note": "x"})
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["format"] == "csl-seqdata/2" == FORMAT_TAG
        assert rows[0]["note"] == "x" and rows[0]["split"] == "train"
        d = rows[0]["grammar"]["feature_dim"]
        assert len(rows) == len(ds) + 1
        for row, s in zip(rows[1:], ds.samples):
            raw = base64.b64decode(row["frames"], validate=True)
            T = len(raw) // (8 * d)
            assert len(raw) == 8 * d * T
            frames = struct.unpack(f"<{T * d}d", raw)
            assert frames == tuple(frames_of(s).ravel())
            for key in ("labels", "error_mask"):
                assert len(row[key]) == T
                assert all(type(x) is int for x in row[key])
            assert row["labels"] == s.labels
            assert row["error_mask"] == s.error_mask
            assert row["id"] == s.id and row["corruption"] == s.corruption

    def test_frames_view_shares_the_bytes(self, small_dataset, tmp_path):
        """A read sample holds each field as the file does, and f8_array
        views its frames without a copy; the view cannot be written."""
        path = tmp_path / "ds.jsonl"
        ca.write_dataset(small_dataset, str(path))
        for s in ca.read_dataset(str(path)).samples:
            assert type(s.frames) is bytes
            assert type(s.labels) is list and type(s.error_mask) is list
            f = f8_array(s.frames, (s.num_frames, s.dim))
            assert f.dtype == np.float64 and f.flags.c_contiguous
            assert not f.flags.writeable and not f.flags.owndata
            assert np.shares_memory(f, np.frombuffer(s.frames, np.uint8))
            assert f.tobytes() == s.frames
            with pytest.raises(ValueError, match="read-only"):
                f[0, 0] = 1.0


def cf_short_test_split():
    """A 2.5 MB dataset: the cf-short benchmark's test split."""
    C, d = 6, 16
    means = np.zeros((C, d))
    means[np.arange(C), np.arange(C)] = 2.0 * np.sqrt(2.0)
    g = ca.PhaseGrammar(C, d, means, 1.0, tuple(range(C)), 8, 16, 3)
    return ca.generate_dataset(g, 200, "test", seed=3)


# ids check_id accepts, non-ASCII ones among them
IDS = st.text(st.characters(blacklist_categories=("Cc", "Cs"),
                            blacklist_characters='/\\,"'),
              min_size=1, max_size=6).filter(lambda v: v not in (".", ".."))
JSON_LEAVES = st.none() | st.booleans() | st.integers() \
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
INTS = st.integers(0, 2**63 - 1)
CORRUPTIONS = st.none() | st.fixed_dictionaries(
    {"kind": st.just("mislabel"), "start": INTS, "end": INTS,
     "from_class": INTS, "to_class": INTS}) | st.fixed_dictionaries(
    {"kind": st.just("disorder"), "start_a": INTS, "end_a": INTS,
     "start_b": INTS, "end_b": INTS})
# (id, frames as a flat list of 2 columns, labels, mask, corruption) of a
# sample of fixed_grammar(C=3, d=2)
SAMPLE_PARTS = st.integers(1, 4).flatmap(lambda T: st.tuples(
    IDS, st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  min_size=2 * T, max_size=2 * T),
    st.lists(st.integers(0, 2), min_size=T, max_size=T),
    st.lists(st.integers(0, 1), min_size=T, max_size=T), CORRUPTIONS))


class TestStreamingIO:
    def test_memory_does_not_grow_with_file_size(self, tmp_path):
        """Reading and writing hold one line at a time: the transient memory
        stays a small share of the file size (about 300% and 120% when the
        whole file was held as one string)."""
        ds = cf_short_test_split()
        path = tmp_path / "ds.jsonl"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ca.write_dataset(ds, str(path))
            write_peak = tracemalloc.get_traced_memory()[1] - before
            size = os.path.getsize(path)
            del ds
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            back = ca.read_dataset(str(path))
            read_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the samples' payload: 8 bytes a frame value and a label, 1 a mask
        # entry, as int64 and int8 arrays of the fields hold them
        held = sum(len(s.frames) + 9 * s.num_frames for s in back.samples)
        assert size >= 2_000_000
        assert write_peak < 0.25 * size
        assert read_peak - held < 0.25 * size

    @pytest.mark.parametrize("name", ["ds.jsonl", "ds.jsonl.gz"])
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(parts=st.lists(SAMPLE_PARTS, min_size=1, max_size=4,
                          unique_by=lambda p: p[0]),
           extra=st.none() | st.dictionaries(st.text(max_size=4),
                                             JSON_LEAVES, max_size=3))
    @example(parts=[("vidéo-€-漢", [0.5, -0.0], [2], [1], None)],
             extra={"note": "é"})
    def test_bytes_equal_one_shot_recipe(self, name, parts, extra):
        """Each written line is the json.dumps(row, sort_keys=True) of the
        header or of a sample's dict with its frames' base64, non-ASCII as
        \\uXXXX escapes, in a .jsonl or a .jsonl.gz file."""
        g = fixed_grammar(C=3, d=2)
        ds = ca.Dataset(g, [ca.SequenceSample(
            vid, np.array(frames).reshape(-1, 2), labels, mask, corruption)
            for vid, frames, labels, mask, corruption in parts], "test", 4)
        header = {"format": FORMAT_TAG, "grammar": g.to_dict(),
                  "split": "test", "seed": 4, **(extra or {})}
        rows = [header] + [
            {"id": s.id, "frames": base64.b64encode(s.frames).decode(),
             "labels": s.labels, "error_mask": s.error_mask,
             "corruption": s.corruption} for s in ds.samples]
        want = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            ca.write_dataset(ds, path, header_extra=extra)
            with open(path, "rb") as f:
                raw = f.read()
        assert (gzip.decompress(raw) if name.endswith(".gz") else raw) \
            == want.encode()

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(IDS, st.lists(st.integers(1, 9), max_size=3),
           st.lists(st.floats(allow_nan=False), max_size=6),
           st.lists(st.integers(0, 1), max_size=6),
           st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=2))
    @example("vidéo-漢", [1, 2], [0.25, -0.0], [0, 1], [(0, 1)])
    def test_profiles_video_equals_json_dumps(self, vid, epochs, losses,
                                              flags, segments):
        """json_b64 of a profiles.json video object equals json.dumps of it
        with its losses' base64, as one json.dump of the document wrote it."""
        raw = struct.pack(f"<{len(losses)}d", *losses)
        video = {"id": vid, "epochs": epochs, "flags": flags,
                 "segments": [list(s) for s in segments],
                 "labels": flags[::-1], "gt_error": flags}
        want = json.dumps(dict(video, losses=base64.b64encode(raw).decode()),
                          sort_keys=True)
        assert ca.fileio.json_b64(video, "losses", raw) == want.encode()

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.dictionaries(st.text(max_size=3), JSON_LEAVES, max_size=4),
           st.text(max_size=3), st.binary(max_size=12))
    def test_json_b64_equals_json_dumps(self, obj, key, raw):
        """The splice holds for any key's place: first, last, alone."""
        obj.pop(key, None)
        want = json.dumps(dict(obj, **{key: base64.b64encode(raw).decode()}),
                          sort_keys=True)
        assert ca.fileio.json_b64(obj, key, raw) == want.encode()

    @pytest.mark.parametrize("name", ["ds.jsonl", "ds.jsonl.gz"])
    def test_failed_write_leaves_target_alone(self, small_dataset, tmp_path,
                                              name):
        path = tmp_path / name
        ca.write_dataset(small_dataset, str(path))
        before = path.read_bytes()
        bad = ca.Dataset(small_dataset.grammar, list(small_dataset.samples),
                         "train", 0)
        s3 = bad.samples[3]
        bad.samples[3] = ca.SequenceSample(
            "s3", s3.frames, s3.labels, s3.error_mask,
            corruption={"kind": {1, 2}}, dim=s3.dim)
        with pytest.raises(TypeError):  # a set is no JSON value
            ca.write_dataset(bad, str(path))
        assert os.listdir(tmp_path) == [name]
        assert path.read_bytes() == before

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["ds.jsonl", "ds.jsonl.gz"])
    def test_non_finite_frame_not_written(self, small_dataset, tmp_path,
                                          name, value):
        """write_dataset refuses the frames read_dataset would refuse,
        naming the sample, and leaves the target as it was."""
        path = tmp_path / name
        ca.write_dataset(small_dataset, str(path))
        before = path.read_bytes()
        bad = ca.Dataset(small_dataset.grammar, list(small_dataset.samples),
                         "train", 0)
        s3 = bad.samples[3]
        frames = frames_of(s3).copy()
        frames[2, 0] = value
        bad.samples[3] = ca.SequenceSample(s3.id, frames, s3.labels,
                                           s3.error_mask)
        with pytest.raises(SchemaError, match=f"^sample {s3.id}: frames hold "
                           "a non-finite value$"):
            ca.write_dataset(bad, str(path))
        assert os.listdir(tmp_path) == [name]
        assert path.read_bytes() == before


class TestJsonShape:
    """check_json, read_json and atomic_path: the one shape check, reader
    and writer of every JSON document and artifact."""

    SHAPE = {"seed": 0, "rate": 0.0, "name": "x", "sizes": [0],
             "videos": [{"id": "x", "epochs": [0]}]}
    GOOD = {"seed": 3, "rate": 0.5, "name": "n", "sizes": [1, 2],
            "videos": [{"id": "a", "epochs": [1]},
                       {"id": "b", "epochs": [1, 2], "extra": None}],
            "other": "keys pass"}

    def test_good_document_passes(self):
        ca.fileio.check_json(self.GOOD, self.SHAPE, "doc", SchemaError)
        # a tuple passes for a list, as asdict() writes one
        ca.fileio.check_json({"sizes": (1, 2)}, {"sizes": [0]}, "doc",
                             SchemaError)

    @pytest.mark.parametrize("edit,text", [
        (lambda d: d.pop("rate"), "doc lacks 'rate'"),
        (lambda d: d["videos"][1].pop("epochs"), "doc.videos[1] lacks 'epochs'"),
        (lambda d: d.update(name=7), "doc.name must be a non-empty string, "
                                     "not 7"),
        (lambda d: d.update(seed=True), "doc.seed must be a non-negative "
                                        "integer, not true"),
        (lambda d: d.update(rate=float("nan")), "doc.rate must be a finite "
                                                "number, not NaN"),
        (lambda d: d.update(sizes=[1, True]), "doc.sizes[1] must be a "
                                              "non-negative integer, not true"),
        (lambda d: d.update(sizes={"a": 1}), "doc.sizes must be a list of "
                                             "non-negative integers, not dict"),
        (lambda d: d["videos"][1].update(epochs=[1, 2.5]),
         "doc.videos[1].epochs[1] must be a non-negative integer, not 2.5"),
        (lambda d: d["videos"].append([1]), "doc.videos[2] must be a JSON "
                                            "object, got list"),
        (lambda d: d.update(videos="ab"), "doc.videos must be a list of JSON "
                                          "objects, not \"ab\""),
    ], ids=["missing-key", "missing-key-in-list-item", "wrong-leaf-kind",
            "bool-for-integer", "nan", "bool-in-list", "object-for-list",
            "bad-item-of-nested-list", "non-object-list-item",
            "string-for-list"])
    def test_message_names_the_dotted_field(self, edit, text):
        doc = json.loads(json.dumps(self.GOOD))
        edit(doc)
        with pytest.raises(SchemaError) as e:
            ca.fileio.check_json(doc, self.SHAPE, "doc", SchemaError)
        assert str(e.value) == text

    @pytest.mark.parametrize("v,lo,hi,want", [
        ([], 0, 2, True), ((0, 1, 1), 0, 2, True), ([0, 2], 0, 2, False),
        ([-1, 0], 0, 2, False), ([1, True], 0, 2, False),
        ([0, 1.0], 0, 2, False), ([2**70], 0, math.inf, True),
        ([-2**63, 2**63 - 1], -2**63, 2**63, True), ([2**63], -2**63, 2**63,
                                                     False),
        ("01", 0, 2, False), ([[0]], 0, 2, False), (None, 0, 2, False),
        ({0: 1}, 0, 2, False)])
    def test_ints_within(self, v, lo, hi, want):
        assert ca.fileio.ints_within(v, lo, hi) is want

    # a value's top byte 0x7f or 0xff: inf, -inf, NaN, and the largest finite
    # values, which the fast test passes on to isfinite
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    @example([0x7ff0000000000000])
    @example([0x3ff0000000000000, 0xfff0000000000000])
    @example([0x7ff8000000000001])
    @example([0x7fefffffffffffff, 0xffefffffffffffff, 0x7f00000000000000])
    def test_f8_finite_equals_isfinite(self, bits):
        raw = struct.pack(f"<{len(bits)}Q", *bits)
        want = all(map(math.isfinite, struct.unpack(f"<{len(bits)}d", raw)))
        assert ca.fileio.f8_finite(raw) is want

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 4), st.data())
    def test_loss_rows_equals_numpy_check(self, E, T, data):
        """The loss check (on the bytes where every value is plainly finite
        and non-negative, else on floats) raises what a numpy check of the
        E x T matrix raises, with its text, and otherwise returns the
        rows. An empty matrix passes."""
        special = st.sampled_from([-0.0, 2.0 ** 1009, 2.0 ** 1008, -1e-300,
                                   math.inf, -math.inf, math.nan])
        values = data.draw(st.lists(st.floats() | special, min_size=E * T,
                                    max_size=E * T))
        losses = np.array(values, dtype=np.float64).reshape(E, T)
        epochs = list(range(2, 2 + E))
        raw = losses.astype("<f8").tobytes()

        def numpy_check():
            finite = np.logical_and.reduce(np.isfinite(losses), axis=1)
            if not np.logical_and.reduce(finite):
                raise NumericError(f"video v: non-finite loss at "
                                   f"epoch {epochs[int(finite.argmin())]}")
            if np.logical_or.reduce(losses < 0, axis=None):
                raise DataError("video v: negative loss")

        def outcome(check):
            try:
                check()
            except (DataError, NumericError) as e:
                return type(e), str(e)

        want = outcome(numpy_check)
        rows = []
        assert outcome(lambda: rows.extend(
            ca.fileio.loss_rows(raw, epochs, T, "v"))) == want
        if want is None:
            assert len(rows) == E
            assert b"".join(struct.pack(f"<{T}d", *r) for r in rows) == raw

    def test_not_an_object(self):
        with pytest.raises(ConfigError, match="^f: config must be a JSON "
                           "object, got list$"):
            ca.fileio.check_json([], {}, "f: config", ConfigError)

    def test_read_json(self, tmp_path):
        read = ca.fileio.read_json
        good = tmp_path / "good.json"
        good.write_text('{"a": [1, 2.5]}')
        assert read(str(good), ParseError, "gone") == {"a": [1, 2.5]}
        # a missing file, or one below a regular file, is `missing`
        cases = [(tmp_path / "missing.json", "^gone$"),
                 (good / "b.json", "^gone$"),
                 (tmp_path, f"^{re.escape(str(tmp_path))}: is a directory$")]
        latin = tmp_path / "latin.json"
        latin.write_bytes(b'{"a": "\xff"}')
        cases.append((latin, f"^{re.escape(str(latin))}: not UTF-8 text "
                             r"\(invalid start byte\)$"))
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": 1,\n "b": }\n')
        cases.append((bad, f"^{re.escape(str(bad))}: line 2: not valid JSON "
                           r"\(Expecting value\)$"))
        for path, pattern in cases:
            with pytest.raises(ParseError, match=pattern):
                read(str(path), ParseError, "gone")

    @pytest.mark.parametrize("seed,shown", [(-1, "-1"), (True, "true")])
    def test_dataset_refuses_a_seed_its_reader_refuses(self, small_dataset,
                                                       seed, shown):
        """A seed the header check refuses on read is refused on
        construction, so write_dataset never writes one."""
        with pytest.raises(ConfigError, match=f"^seed must be a non-negative "
                           f"integer, not {shown}$"):
            ca.Dataset(small_dataset.grammar, small_dataset.samples, "train",
                       seed)

    def test_atomic_path(self, tmp_path):
        path = tmp_path / "out.txt"
        with ca.fileio.atomic_path(str(path)) as tmp:
            assert tmp == f"{path}.tmp"
            open(tmp, "w").write("one")
        assert os.listdir(tmp_path) == ["out.txt"]
        with pytest.raises(KeyError):  # any failure: the target stays
            with ca.fileio.atomic_path(str(path)) as tmp:
                open(tmp, "w").write("two")
                raise KeyError("x")
        assert os.listdir(tmp_path) == ["out.txt"]
        assert path.read_text() == "one"

    def test_unwritable_path_is_a_data_error(self, tmp_path):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("x")
        for target, reason in (("dir", "Is a directory"),
                               ("missing/out", "No such file or directory"),
                               ("file/out", "Not a directory")):
            path = str(tmp_path / target)
            with pytest.raises(DataError, match=f"^cannot write "
                               f"{re.escape(path)}: {reason}$"):
                with ca.fileio.atomic_path(path) as tmp:
                    open(tmp, "w").write("x")
        with pytest.raises(DataError, match="^cannot write .*file: File "
                           "exists$"):
            ca.fileio.make_dir(str(tmp_path / "file"))
        assert sorted(os.listdir(tmp_path)) == ["dir", "file"]
        assert os.listdir(tmp_path / "dir") == []
