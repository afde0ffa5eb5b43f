import base64
import gzip
import hashlib
import json
import struct

import numpy as np
import pytest

import cslaudit as ca
from cslaudit.errors import (ConfigError, ParseError, SchemaError,
                             SequenceTooShortError)
from cslaudit.seqdata import (FORMAT_TAG, dataset_fingerprint,
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
        assert s.labels.tolist() == [0] * 5 + [1] * 5
        assert np.array_equal(s.frames[:5], np.tile(g.class_means[0], (5, 1)))
        assert np.array_equal(s.frames[5:], np.tile(g.class_means[1], (5, 1)))
        assert not s.error_mask.any()

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
            for t in range(s.num_frames):
                assert np.array_equal(s.frames[t], g.class_means[s.labels[t]])

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
                assert out.labels.tolist() == [0, 0, 0, 2, 2, 2, 0, 0, 0, 0]
                assert out.error_mask.tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 0, 0]
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
        s = self.make_sample()
        s.frames[:] = np.random.default_rng(2).normal(size=s.frames.shape)
        before = s.frames.copy()
        out = inject_mislabeling(s, self.SPEC, 3, np.random.default_rng(3))
        assert np.array_equal(out.frames, before)
        assert np.array_equal(s.frames, before)

    def test_mask_matches_segment(self):
        rng = np.random.default_rng(4)
        spec = ca.CorruptionSpec("mislabel", 1.0, 2, 6, 0)
        for _ in range(100):
            out = inject_mislabeling(self.make_sample(12), spec, 3, rng)
            c = out.corruption
            assert out.error_mask.sum() == c["end"] - c["start"]
            assert out.error_mask[c["start"]:c["end"]].all()

    def test_already_corrupted_rejected(self):
        out = inject_mislabeling(self.make_sample(), self.SPEC, 3,
                                 np.random.default_rng(0))
        with pytest.raises(ValueError):
            inject_mislabeling(out, self.SPEC, 3, np.random.default_rng(0))

    def test_too_short(self):
        spec = ca.CorruptionSpec("mislabel", 1.0, 20, 30, 0)
        with pytest.raises(SequenceTooShortError):
            inject_mislabeling(self.make_sample(10), spec, 3,
                               np.random.default_rng(0))


class TestDisorder:
    SPEC = ca.CorruptionSpec("disorder", 1.0, seed=0)

    def test_two_run_swap(self):
        frames = np.arange(10, dtype=float).reshape(5, 2)
        s = ca.SequenceSample("s0", frames, np.array([0, 0, 0, 1, 1]),
                              np.zeros(5, dtype=np.int8))
        out = inject_disordering(s, self.SPEC, np.random.default_rng(0))
        assert out.labels.tolist() == [1, 1, 0, 0, 0]
        assert out.error_mask.tolist() == [1, 1, 1, 1, 1]
        # blocks move as units: frames follow their labels
        assert np.array_equal(out.frames, frames[[3, 4, 0, 1, 2]])

    def test_label_multiset_preserved(self, small_dataset):
        rng = np.random.default_rng(1)
        for s in small_dataset.samples:
            out = inject_disordering(s, self.SPEC, rng)
            assert sorted(out.labels) == sorted(s.labels)
            # frame rows are a permutation of the originals
            assert sorted(map(tuple, out.frames)) == sorted(map(tuple, s.frames))

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
        with pytest.raises(SequenceTooShortError):
            inject_disordering(s, self.SPEC, np.random.default_rng(0))


class TestCorruptDataset:
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
        assert all(s.error_mask.any() for s in out.samples)

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
                assert not new.error_mask.any()


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
            T, d = s.frames.shape
            fields += [s.id.encode(), struct.pack("<2Q", T, d),
                       struct.pack(f"<{T * d}d", *s.frames.ravel()),
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
        # awkward floats, non-finite ones and the smallest subnormal survive
        # the round trip bit for bit
        vals = np.array([[0.1, 1e-300, 1.7976931348623157e308, -0.0],
                         [np.nan, np.inf, -np.inf, 5e-324]])
        s = ca.SequenceSample("s0", vals, np.array([0, 0]),
                              np.array([0, 0], dtype=np.int8))
        g = fixed_grammar(C=2, d=4)
        ds = ca.Dataset(g, [s], "train", 0)
        path = tmp_path / "f.jsonl"
        ca.write_dataset(ds, str(path))
        back = ca.read_dataset(str(path)).samples[0].frames
        assert np.array_equal(back.view("<u8"), vals.view("<u8"))

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
            assert frames == tuple(s.frames.ravel())
            for key in ("labels", "error_mask"):
                assert len(row[key]) == T
                assert all(type(x) is int for x in row[key])
            assert row["labels"] == s.labels.tolist()
            assert row["error_mask"] == s.error_mask.tolist()
            assert row["id"] == s.id and row["corruption"] == s.corruption

    def test_frames_are_writable_owned_float64(self, small_dataset, tmp_path):
        path = tmp_path / "ds.jsonl"
        ca.write_dataset(small_dataset, str(path))
        for s in ca.read_dataset(str(path)).samples:
            f = s.frames
            assert f.dtype == np.float64 and f.flags.c_contiguous
            assert f.flags.writeable and f.flags.owndata
