"""Acceptance gate: every release criterion in one module.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and asserts the same condition. The shared benchmark is
built once per session: a 6-class grammar, four trainings (clean Attention,
clean ContextFree, and Attention on mislabel- and disorder-noisy training
sets), and audits of the corrupted test sets.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

import cslaudit as ca
from cslaudit import cli
from cslaudit import csl as CSL
from cslaudit import metrics as MET
from cslaudit import trainer as TR

from conftest import make_benchmark_grammar
from test_model import flat_gradcheck


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# ---------------------------------------------------------------------------
# shared benchmark


DETECTION = CSL.DetectionConfig(mode=CSL.PERCENTILE, k_percent=10.0, window=5)


def model_config(mode):
    return ca.ModelConfig(
        feature_dim=16, num_classes=6, hidden_dim=32, head_dims=(16, 8),
        temporal_mode=mode, attention_dim=16, dropout_rates=(0.5, 0.3),
        init_seed=100)


@dataclass
class AuditResult:
    auc: float
    eda: float
    profiles: list
    samples: list


def audit_dataset(store, ds):
    profiles = list(ca.audit_dataset(store, ds, DETECTION))
    inputs = [MET.EvalInput.from_profile(p, s.error_mask)
              for p, s in zip(profiles, ds.samples)]
    scores = np.concatenate([ei.scores for ei in inputs])
    gt = np.concatenate([ei.gt_mask for ei in inputs])
    return AuditResult(auc=ca.micro_auc(scores, gt),
                       eda=ca.eda(inputs, 10.0),
                       profiles=profiles, samples=list(ds.samples))


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    grammar = make_benchmark_grammar()
    train_ds = ca.generate_dataset(grammar, 40, "train", seed=0)
    test_ds = ca.generate_dataset(grammar, 20, "test", seed=2)

    test_mis = ca.corrupt_dataset(test_ds, ca.CorruptionSpec(
        "mislabel", 0.5, segment_len_min=30, segment_len_max=80, seed=10))
    test_dis = ca.corrupt_dataset(test_ds, ca.CorruptionSpec(
        "disorder", 0.5, seed=11))
    train_mis = ca.corrupt_dataset(train_ds, ca.CorruptionSpec(
        "mislabel", 0.1, segment_len_min=30, segment_len_max=80, seed=12))
    train_dis = ca.corrupt_dataset(train_ds, ca.CorruptionSpec(
        "disorder", 0.1, seed=13))

    tc = TR.TrainConfig(epochs=50, learning_rate=1e-4, shuffle_seed=200)
    stores = {
        "attn": ca.train(train_ds, model_config("attention"), tc,
                         str(root / "attn")),
        "cf": ca.train(train_ds, model_config("context_free"), tc,
                       str(root / "cf")),
        "attn_noisy_mis": ca.train(train_mis, model_config("attention"), tc,
                                   str(root / "nm")),
        "attn_noisy_dis": ca.train(train_dis, model_config("attention"), tc,
                                   str(root / "nd")),
    }
    return {
        "attn_mis": audit_dataset(stores["attn"], test_mis),
        "attn_dis": audit_dataset(stores["attn"], test_dis),
        "cf_mis": audit_dataset(stores["cf"], test_mis),
        "cf_dis": audit_dataset(stores["cf"], test_dis),
        "noisy_mis": audit_dataset(stores["attn_noisy_mis"], test_mis),
        "noisy_dis": audit_dataset(stores["attn_noisy_dis"], test_dis),
        "stores": stores,
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gradient_exactness():
    ok = True
    for mode in ("context_free", "attention"):
        cfg = ca.ModelConfig(feature_dim=3, num_classes=3, hidden_dim=4,
                             head_dims=(4, 3), temporal_mode=mode,
                             attention_dim=3, dropout_rates=(0.0, 0.0),
                             init_seed=0)
        checked = 0
        for seed in range(200):
            worst = flat_gradcheck(cfg, seed, h=1e-4, kink_margin=1e-3)
            if worst is None:
                continue
            ok = ok and worst < 1e-4
            checked += 1
            if checked == 10:
                break
        ok = ok and checked == 10
    report(1, "gradient exactness, 10 draws per mode, rel err < 1e-4", ok)


def test_criterion_2_auc_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(2, 501))
        if i % 2:
            scores = rng.integers(0, 6, n).astype(float)
        else:
            scores = rng.normal(size=n)
        gt = rng.integers(0, 2, n)
        if gt.min() == gt.max():
            gt[0] = 1 - gt[0]
        worst = max(worst, abs(ca.micro_auc(scores, gt)
                               - ca.auc_bruteforce(scores, gt)))
    report(2, f"AUC oracle equivalence, worst gap {worst:.2e}", worst < 1e-12)


def test_criterion_3_mislabel_benchmark(bench):
    r = bench["attn_mis"]
    report(3, f"mislabel AUC {r.auc:.3f} >= 0.90 and EDA {r.eda:.3f} >= 0.80",
           r.auc >= 0.90 and r.eda >= 0.80)


def test_criterion_4_disorder_benchmark(bench):
    r = bench["attn_dis"]
    report(4, f"disorder AUC {r.auc:.3f} >= 0.70", r.auc >= 0.70)


def test_criterion_5_temporal_mode_ordering(bench):
    cf_dis, at_dis = bench["cf_dis"].auc, bench["attn_dis"].auc
    cf_mis = bench["cf_mis"].auc
    ok = (0.40 <= cf_dis <= 0.60
          and at_dis - cf_dis >= 0.10
          and cf_mis >= 0.90)
    report(5, f"context-free disorder {cf_dis:.3f} near chance, attention "
              f"+{at_dis - cf_dis:.3f}, context-free mislabel {cf_mis:.3f}", ok)


def test_criterion_6_noisy_training_robustness(bench):
    drop_mis = bench["attn_mis"].auc - bench["noisy_mis"].auc
    drop_dis = bench["attn_dis"].auc - bench["noisy_dis"].auc
    ok = drop_mis <= 0.05 and drop_dis <= 0.05
    report(6, f"noisy-training AUC drops {drop_mis:.3f}/{drop_dis:.3f} <= 0.05",
           ok)


def test_criterion_7_curvature_property(bench):
    store = bench["stores"]["attn"]
    corrupted, clean = [], []
    for s in bench["attn_mis"].samples:
        traj = CSL.eval_loss_trajectory(store, s, DETECTION)
        curv = ca.trajectory_curvature(traj.losses)
        mask = np.array(s.error_mask)
        corrupted.append(curv[mask == 1])
        clean.append(curv[mask == 0])
    mean_bad = float(np.concatenate(corrupted).mean())
    mean_ok = float(np.concatenate(clean).mean())
    report(7, f"curvature corrupted {mean_bad:.4f} > clean {mean_ok:.4f}",
           mean_bad > mean_ok)


def test_criterion_8_invariant_suite(small_grammar, tiny_model_cfg):
    rng = np.random.default_rng(8)
    ok = True

    losses = rng.uniform(0, 3, (6, 40))
    csl = np.array(MET.mean_over_epochs(
        ca.fileio.loss_rows(losses.tobytes(), range(1, 7), 40, "v")))
    ok = ok and np.abs(csl - losses.sum(axis=0) / 6).max() < 1e-12

    ok = ok and np.array_equal(MET.smooth(csl.tolist(), 0), csl)
    sm = np.array(MET.smooth(csl.tolist(), 5))
    ok = ok and csl.min() - 1e-12 <= sm.min() and sm.max() <= csl.max() + 1e-12

    x = np.array([0.1, 0.5, 0.5, 0.9])
    ok = ok and list(MET.flags_above(x.tolist(), 0.5)) == [0, 0, 0, 1]
    for k in (10.0, 37.0, 100.0):
        flags = np.array(MET.flags_top(csl.tolist(), k))
        ok = ok and flags.sum() == int(np.ceil(k / 100 * len(csl)))
    ok = ok and np.array_equal(MET.flags_top(csl.tolist(), 25),
                               MET.flags_top((csl ** 3 + 5 * csl).tolist(), 25))

    gt = np.zeros(40, dtype=int)
    gt[3:9] = 1
    gt[20:24] = 1
    ei = MET.EvalInput("v", rng.normal(size=40), gt)
    values = [ca.eda([ei], k) for k in (5, 20, 60, 100)]
    ok = ok and values == sorted(values)

    flags = (rng.random(30) < 0.3).astype(int)
    rebuilt = np.zeros(30, dtype=int)
    for a, b in ca.frames_to_segments(flags):
        rebuilt[a:b] = 1
    ok = ok and np.array_equal(rebuilt, flags)

    params = ca.init_params(tiny_model_cfg)
    X = rng.normal(size=(9, 4))
    probs = ca.forward(params, tiny_model_cfg, X)
    ok = ok and np.abs(probs.sum(axis=1) - 1).max() < 1e-9

    ds = ca.generate_dataset(small_grammar, 5, "train", seed=21)
    ok = ok and abs(ca.compute_class_weights(ds).mean() - 1) < 1e-9

    perm = rng.permutation(9)
    ok = ok and np.allclose(ca.forward(params, tiny_model_cfg, X[perm]),
                            probs[perm])

    report(8, "invariant suite (CSL, smoothing, flags, EDA, softmax, weights)",
           ok)


def test_float32_replay_tolerance_gate(bench):
    """The audit replays the stored float32 snapshots in float32. Replayed
    with the same snapshots upcast to float64, the attention mislabel and the
    context-free disorder audits keep every frame's CSL within 1e-6, every
    flag, and the micro-AUC within 1e-6."""
    grammar = make_benchmark_grammar()
    worst_csl = worst_auc = 0.0
    for key, name in (("attn_mis", "attn"), ("cf_dis", "cf")):
        r, store = bench[key], bench["stores"][name]
        assert all(v.dtype == np.float32
                   for v in store.params.values())
        upcast = TR.CheckpointStore(store.manifest, {
            k: v.astype(np.float64) for k, v in store.params.items()})
        ref = audit_dataset(upcast, ca.Dataset(grammar, r.samples, "test", 2))
        for p32, p64 in zip(r.profiles, ref.profiles):
            assert p64.losses.dtype == np.float64
            assert np.array_equal(p32.flags, p64.flags), p32.video_id
            worst_csl = max(worst_csl, float(np.abs(np.array(p32.csl)
                                                    - p64.csl).max()))
        worst_auc = max(worst_auc, abs(r.auc - ref.auc))
    print(f"float32 replay: max |dCSL| {worst_csl:.1e}, |dAUC| {worst_auc:.1e}")
    # 0 < : the two replays did run in different precisions
    assert 0 < worst_csl <= 1e-6 and worst_auc <= 1e-6


def test_criterion_9_pipeline_determinism(tmp_path):
    artifacts = ("store/manifest.json", "store/ckpt_0004.bin", "audit.csv",
                 "report.json", "profiles.json")
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = {
            "seed": 5, "out_dir": str(out),
            "grammar": {"num_classes": 4, "feature_dim": 6,
                        "feature_noise_sigma": 0.5, "class_mean_scale": 2.0,
                        "duration_min": 8, "duration_max": 12,
                        "boundary_blend": 2},
            "data": {"n_train": 6, "n_val": 3, "n_test": 4},
            "corruption": {"kind": "mislabel", "fraction": 0.5,
                           "segment_len_min": 3, "segment_len_max": 6},
            "model": {"hidden_dim": 12, "head_dims": [8, 6],
                      "temporal_mode": "attention", "attention_dim": 6},
            "train": {"epochs": 4, "learning_rate": 1e-3},
            "detection": {"mode": "percentile", "k_percent": 10.0,
                          "window": 2},
        }
        cfg_path = tmp_path / f"{run}.json"
        cfg_path.write_text(json.dumps(cfg))
        for cmd in ("gen", "corrupt", "train"):
            assert cli.main([cmd, "--config", str(cfg_path)]) == 0
        cfg["data"] = dict(cfg["data"],
                           audit_path=str(out / "test_mislabel.jsonl"))
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["audit", "--config", str(cfg_path)]) == 0
        assert cli.main(["eval", "--config", str(cfg_path)]) == 0
        digests.append([hashlib.sha256((out / rel).read_bytes()).hexdigest()
                        for rel in artifacts])
    report(9, "pipeline determinism, byte-identical artifacts",
           digests[0] == digests[1])
