import base64
import gzip
import json

import numpy as np
import pytest

import cslaudit as ca


@pytest.fixture
def small_grammar():
    means = np.zeros((3, 4))
    means[np.arange(3), np.arange(3)] = 3.0
    return ca.PhaseGrammar(
        num_classes=3, feature_dim=4, class_means=means,
        feature_noise_sigma=0.3, phase_order=(0, 1, 2),
        duration_min=8, duration_max=12, boundary_blend=2)


@pytest.fixture
def small_dataset(small_grammar):
    return ca.generate_dataset(small_grammar, 6, "train", seed=7)


@pytest.fixture
def tiny_model_cfg():
    return ca.ModelConfig(
        feature_dim=4, num_classes=3, hidden_dim=8, head_dims=(6, 5),
        temporal_mode="context_free", attention_dim=4,
        dropout_rates=(0.0, 0.0), init_seed=3)


def make_benchmark_grammar():
    """The desk-scale benchmark grammar used by the acceptance suite:
    6 classes, 16 feature dims, pairwise class-mean distance 4x the noise."""
    C, d = 6, 16
    means = np.zeros((C, d))
    means[np.arange(C), np.arange(C)] = 4.0 / np.sqrt(2.0)
    return ca.PhaseGrammar(
        num_classes=C, feature_dim=d, class_means=means,
        feature_noise_sigma=1.0, phase_order=tuple(range(C)),
        duration_min=40, duration_max=80, boundary_blend=3)


def frames_of(sample):
    """The sample's frames as a (T, d) float64 array: a read-only view of
    its bytes."""
    return ca.seqdata.f8_array(sample.frames, (sample.num_frames, sample.dim))


def set_frame(path, line, index, value):
    """Edit the dataset file at path in place: frames[index] of the sample
    on `line` (1-based) becomes value. Only that line's base64 `frames`
    string changes, so the file can hold what write_dataset refuses."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as f:
        lines = f.readlines()
    row = json.loads(lines[line - 1])
    frames = np.frombuffer(base64.b64decode(row["frames"]), "<f8").copy()
    frames.reshape(len(row["labels"]), -1)[index] = value
    row["frames"] = base64.b64encode(frames.tobytes()).decode()
    lines[line - 1] = json.dumps(row, sort_keys=True) + "\n"
    with opener(path, "wt", encoding="utf-8") as f:
        f.writelines(lines)
