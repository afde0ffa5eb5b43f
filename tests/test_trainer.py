import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import cslaudit as ca
from conftest import frames_of
from cslaudit import model as M
from cslaudit import trainer as TR
from cslaudit.errors import ConfigError, NumericError, StoreError


def counts_dataset(counts, grammar):
    """Single sample whose label histogram matches `counts`."""
    labels = np.repeat(np.arange(len(counts)), counts)
    frames = np.array(grammar.class_means)[labels]
    s = ca.SequenceSample("s0", frames, labels,
                          np.zeros(len(labels), dtype=np.int8))
    return ca.Dataset(grammar, [s], "train", 0)


class TestClassWeights:
    def grammar(self, C):
        means = np.eye(C, 4) * 2
        return ca.PhaseGrammar(C, 4, means, 0.1, tuple(range(C)),
                               1, 200, 0)

    def test_inverse_frequency(self):
        ds = counts_dataset([10, 30, 60], self.grammar(3))
        w = ca.compute_class_weights(ds)
        assert np.allclose(w, [2.0, 2 / 3, 1 / 3], atol=1e-9)

    def test_balanced(self):
        ds = counts_dataset([25, 25, 25], self.grammar(3))
        assert np.allclose(ca.compute_class_weights(ds), 1.0)

    def test_extreme_imbalance(self):
        ds = counts_dataset([1, 99], self.grammar(2))
        assert np.allclose(ca.compute_class_weights(ds), [1.98, 0.02],
                           atol=1e-12)

    def test_mean_one_and_ordering(self, small_dataset):
        w = ca.compute_class_weights(small_dataset)
        assert abs(w.mean() - 1.0) < 1e-9
        counts = np.zeros(3, dtype=int)
        for s in small_dataset.samples:
            counts += np.bincount(s.labels, minlength=3)
        assert np.array_equal(np.argsort(w), np.argsort(-counts))

    def test_missing_class(self):
        ds = counts_dataset([10, 20], self.grammar(3))
        with pytest.raises(ConfigError, match="class 2 never appears"):
            ca.compute_class_weights(ds)


def adamw_step(grads, state, t, cfg):
    """TR.adamw_step on these gradients, copied into the state's buffer as
    backward(..., out=state.grads) writes them."""
    for k, g in grads.items():
        state.grads[k][...] = g
    TR.adamw_step(state, t, cfg)


class TestAdamW:
    def scalar_setup(self, weight_decay=0.0):
        params = ca.ModelParams({"w": np.array([[1.0]])})
        cfg = TR.TrainConfig(epochs=1, learning_rate=0.1,
                             weight_decay=weight_decay, shuffle_seed=0)
        return params, TR.AdamWState(params), cfg

    def test_zero_grad_fixed_point(self):
        params, state, cfg = self.scalar_setup(weight_decay=0.0)
        adamw_step({"w": np.zeros((1, 1))}, state, 1, cfg)
        assert params.tensors["w"][0, 0] == 1.0

    def test_first_step_size(self):
        params, state, cfg = self.scalar_setup()
        adamw_step({"w": np.ones((1, 1))}, state, 1, cfg)
        # bias-corrected mhat/sqrt(vhat) = 1 at t=1
        assert params.tensors["w"][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-7)

    def test_decoupled_decay(self):
        params, state, cfg = self.scalar_setup(weight_decay=0.01)
        adamw_step({"w": np.zeros((1, 1))}, state, 1, cfg)
        assert params.tensors["w"][0, 0] == pytest.approx(1.0 * (1 - 0.1 * 0.01),
                                                          abs=1e-15)

    def test_decay_skips_vectors(self):
        params = ca.ModelParams({"b": np.array([1.0]), "ln_g": np.array([1.0])})
        state = TR.AdamWState(params)
        cfg = TR.TrainConfig(epochs=1, learning_rate=0.1, weight_decay=0.5,
                             shuffle_seed=0)
        adamw_step({"b": np.zeros(1), "ln_g": np.zeros(1)},
                      state, 1, cfg)
        assert params.tensors["b"][0] == 1.0
        assert params.tensors["ln_g"][0] == 1.0

    def test_nonfinite_grad_aborts(self):
        params, state, cfg = self.scalar_setup()
        with pytest.raises(NumericError, match="w"):
            adamw_step({"w": np.full((1, 1), np.inf)}, state, 1, cfg)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params, state, cfg = self.scalar_setup(weight_decay=0.01)
            g = np.array([[0.3]])
            for t in range(1, 6):
                adamw_step({"w": g * t}, state, t, cfg)
            results.append(params.tensors["w"].copy())
        assert np.array_equal(results[0], results[1])


def ref_adamw_step(tensors, grads, m, v, t, cfg):
    """The per-tensor AdamW update, kept as the reference for the flat one."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in tensors.items():
        g = grads[name]
        m[name] *= cfg.beta1
        m[name] += (1.0 - cfg.beta1) * g
        v[name] *= cfg.beta2
        v[name] += (1.0 - cfg.beta2) * g * g
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        p -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.eps)
        if cfg.weight_decay > 0 and p.ndim == 2:
            p -= cfg.learning_rate * cfg.weight_decay * p


class TestFlatAdamW:
    # 1-D tensors between the 2-D ones, so packing reorders the buffer
    SHAPES = {"a.W": (3, 4), "a.b": (3,), "ln_g": (4,), "b.W": (2, 3),
              "b.b": (2,)}

    def make_state(self):
        rng = np.random.default_rng(0)
        init = {k: rng.normal(size=s) for k, s in self.SHAPES.items()}
        params = ca.ModelParams({k: v.copy() for k, v in init.items()})
        cfg = TR.TrainConfig(epochs=1, learning_rate=0.05, weight_decay=0.1,
                             shuffle_seed=0)
        return rng, init, params, TR.AdamWState(params), cfg

    def test_matches_per_tensor_reference(self):
        rng, ref, params, state, cfg = self.make_state()
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(x) for k, x in ref.items()}
        for t in range(1, 6):
            grads = {k: rng.normal(size=s) * 10.0 ** rng.uniform(-3, 3)
                     for k, s in self.SHAPES.items()}
            adamw_step(grads, state, t, cfg)
            ref_adamw_step(ref, grads, m, v, t, cfg)
            assert list(params.tensors) == list(self.SHAPES)
            for k in self.SHAPES:
                assert np.array_equal(params.tensors[k], ref[k]), (t, k)

    def test_nonfinite_names_first_tensor_in_canonical_order(self):
        _, _, params, state, cfg = self.make_state()
        grads = {k: np.zeros(s) for k, s in self.SHAPES.items()}
        grads["b.W"][0, 0] = np.inf   # first in the packed buffer
        grads["ln_g"][1] = np.nan     # first in canonical order
        with pytest.raises(NumericError, match="ln_g"):
            adamw_step(grads, state, 1, cfg)


def test_train_equals_reference_replay(small_dataset, tmp_path):
    """Two epochs of attention training with dropout and weight decay give
    the snapshots of a replay that steps with the per-tensor reference."""
    cfg_model = ca.ModelConfig(
        feature_dim=4, num_classes=3, hidden_dim=8, head_dims=(6, 5),
        temporal_mode="attention", attention_dim=4, init_seed=3)
    cfg_train = TR.TrainConfig(epochs=2, learning_rate=1e-3, shuffle_seed=17)
    store = ca.train(small_dataset, cfg_model, cfg_train, str(tmp_path / "s"))

    shuffle_seed, dropout_seed = np.random.SeedSequence(17).spawn(2)
    rng_shuffle = np.random.default_rng(shuffle_seed)
    rng_dropout = np.random.default_rng(dropout_seed)
    alpha = ca.compute_class_weights(small_dataset)
    params = ca.init_params(cfg_model)
    m = {k: np.zeros_like(x) for k, x in params.tensors.items()}
    v = {k: np.zeros_like(x) for k, x in params.tensors.items()}
    step = 0
    for epoch in (1, 2):
        for idx in rng_shuffle.permutation(len(small_dataset.samples)):
            s = small_dataset.samples[idx]
            step += 1
            _, grads = M.backward(params, cfg_model, frames_of(s), s.labels,
                                  alpha, train=True, rng=rng_dropout)
            ref_adamw_step(params.tensors, grads, m, v, step, cfg_train)
        snap = ca.ModelParams({k: x.astype(np.float32).astype(np.float64)
                               for k, x in params.tensors.items()})
        assert ca.ModelParams({k: x[epoch - 1] for k, x
                               in store.params.tensors.items()}) == snap


@pytest.mark.parametrize("mode", ["context_free", "attention"])
def test_backward_into_state_grads_equals_fresh(mode):
    """backward(..., out=state.grads) fills every element of the state's
    flat gradient buffer with the bits of a call without `out`."""
    cfg = ca.ModelConfig(feature_dim=4, num_classes=3, hidden_dim=8,
                         head_dims=(6, 5), temporal_mode=mode,
                         attention_dim=4, init_seed=3)
    params = ca.init_params(cfg)
    state = TR.AdamWState(params)
    state.g[:] = np.nan
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(130, 4)), rng.integers(0, 3, 130)
    alpha = np.array([0.5, 1.0, 1.5])
    loss, grads = M.backward(params, cfg, X, y, alpha, train=True,
                             rng=np.random.default_rng(1), out=state.grads)
    loss0, grads0 = M.backward(params, cfg, X, y, alpha, train=True,
                               rng=np.random.default_rng(1))
    assert grads is state.grads and loss == loss0
    assert list(grads) == list(grads0) == list(params.tensors)
    for k in grads0:
        assert np.array_equal(grads[k], grads0[k]), k
    assert np.isfinite(state.g).all()


@pytest.fixture
def train_cfg():
    return TR.TrainConfig(epochs=5, learning_rate=1e-3, shuffle_seed=17)


class TestTrain:
    def test_epoch_snapshots(self, small_dataset, tiny_model_cfg, train_cfg,
                             tmp_path):
        store = ca.train(small_dataset, tiny_model_cfg, train_cfg,
                         str(tmp_path / "store"))
        assert store.epochs == [1, 2, 3, 4, 5]
        assert np.isfinite(store.manifest["epoch_losses"]).all()

    def test_on_epoch_fires_per_checkpoint_as_saved(self, small_dataset,
                                                     tiny_model_cfg, train_cfg,
                                                     tmp_path):
        path = tmp_path / "store"
        calls = []

        def on_epoch(epoch, loss):
            # the checkpoint and the manifest naming it are already on disk
            on_disk = json.loads((path / "manifest.json").read_text())
            calls.append((epoch, loss, on_disk["epochs"][-1],
                          (path / f"ckpt_{epoch:04d}.bin").exists()))

        store = ca.train(small_dataset, tiny_model_cfg, train_cfg, str(path),
                         on_epoch=on_epoch)
        assert calls == [(e, loss, e, True) for e, loss in zip(
            store.epochs, store.manifest["epoch_losses"])]
        assert [c[0] for c in calls] == [1, 2, 3, 4, 5]

    def test_bitwise_deterministic_files(self, small_dataset, tiny_model_cfg,
                                         train_cfg, tmp_path):
        digests = []
        for name in ("a", "b"):
            path = tmp_path / name
            ca.train(small_dataset, tiny_model_cfg, train_cfg, str(path))
            files = sorted(os.listdir(path))
            digests.append([(f, hashlib.sha256((path / f).read_bytes()).hexdigest())
                            for f in files])
        assert digests[0] == digests[1]

    def test_training_reduces_loss(self, small_dataset, tiny_model_cfg, tmp_path):
        cfg = TR.TrainConfig(epochs=15, learning_rate=3e-3, shuffle_seed=17)
        store = ca.train(small_dataset, tiny_model_cfg, cfg,
                         str(tmp_path / "store"))
        losses = store.manifest["epoch_losses"]
        assert losses[-1] < losses[0]

    def test_empty_dataset_rejected(self, small_grammar, tiny_model_cfg,
                                    train_cfg, tmp_path):
        ds = ca.Dataset(small_grammar, [], "train", 0)
        with pytest.raises(ConfigError):
            ca.train(ds, tiny_model_cfg, train_cfg, str(tmp_path / "s"))


# Each was accepted before: beta1 1.0 zeroed the bias correction (a numeric
# fault at step 2), and a negative eps or weight decay trained with exit 0.
@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", np.inf), ("learning_rate", np.nan),
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", np.nan),
    ("eps", 0.0), ("eps", -1.0), ("eps", np.inf),
    ("weight_decay", -50.0), ("weight_decay", np.inf),
    ("weight_decay", np.nan)])
def test_train_config_out_of_range_refused(field, value):
    with pytest.raises(ConfigError, match=field):
        TR.TrainConfig(epochs=1, **{field: value})


def test_train_config_range_ends_accepted():
    TR.TrainConfig(epochs=1, learning_rate=1e9, beta1=0.0, beta2=0.0,
                   eps=1e-300, weight_decay=0.0)


FAULTS_PER_STEP = """
import resource, sys, tempfile
import numpy as np
import cslaudit as ca

C, d = 6, 16
means = np.zeros((C, d))
means[np.arange(C), np.arange(C)] = 2.8
grammar = ca.PhaseGrammar(C, d, means, 1.0, tuple(range(C)), 50, 70, 3)
ds = ca.generate_dataset(grammar, 8, "train", seed=1)  # T 300..420
faults = []
with tempfile.TemporaryDirectory() as store:
    ca.train(ds, ca.ModelConfig(feature_dim=d, num_classes=C,
                                temporal_mode="attention"),
             ca.TrainConfig(epochs=4), store,
             on_epoch=lambda epoch, loss: faults.append(
                 resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print((faults[-1] - faults[0]) / (len(ds.samples) * (len(faults) - 1)))
"""


def test_training_step_faults_in_no_pages():
    """After the first epoch an attention step (T 300..420) reuses its
    buffers instead of faulting in fresh pages: a fresh interpreter with the
    default allocator settings takes at most 10 minor faults per step."""
    pytest.importorskip("resource")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(ca.__file__)))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert float(out) <= 10, f"{float(out):.0f} minor faults per step"


@pytest.mark.parametrize("mode", ["context_free", "attention"])
def test_training_step_enters_no_numpy_python_frame(mode):
    """A training step, backward plus adamw_step, calls numpy's ufuncs and
    ufunc methods directly: after a warm-up step it enters no function
    defined in numpy's Python files (such as the ndarray.sum wrapper)."""
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    cfg = ca.ModelConfig(feature_dim=4, num_classes=3, hidden_dim=8,
                         head_dims=(6, 5), temporal_mode=mode,
                         attention_dim=4, dropout_rates=(0.5, 0.3))
    cfg_train = TR.TrainConfig(epochs=1, weight_decay=0.01)
    params = ca.init_params(cfg)
    state = TR.AdamWState(params)
    ws = M.Workspace()
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(130, 4)), rng.integers(0, 3, 130)
    alpha = np.array([0.5, 1.0, 1.5])
    entered = []

    def step(t):
        M.backward(params, cfg, X, y, alpha, train=True, rng=rng, ws=ws,
                   out=state.grads)
        TR.adamw_step(state, t, cfg_train)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            entered.append(frame.f_code.co_name)

    step(1)
    sys.setprofile(profile)
    try:
        step(2)
    finally:
        sys.setprofile(None)
    assert entered == []


# (model field, a manifest value of another kind than asdict() writes);
# int() and float() read most of them as a valid config before
BAD_MODEL_FIELDS = [
    ("hidden_dim", 8.0), ("hidden_dim", "8"), ("attention_dim", True),
    ("init_seed", -1), ("head_dims", [6.5, 5]), ("head_dims", [6, True]),
    ("head_dims", "65"), ("dropout_rates", [0.0, "0"]),
    ("dropout_rates", [0.0, float("nan")]), ("temporal_mode", 1),
]


@pytest.mark.parametrize("field,value", BAD_MODEL_FIELDS,
                         ids=[f"{f}={v!r}" for f, v in BAD_MODEL_FIELDS])
def test_manifest_model_field_of_wrong_kind(small_dataset, tiny_model_cfg,
                                            tmp_path, field, value):
    store = str(tmp_path / "s")
    ca.train(small_dataset, tiny_model_cfg, TR.TrainConfig(epochs=1), store)
    path = os.path.join(store, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    manifest["model"][field] = value
    with open(path, "w") as f:
        json.dump(manifest, f)
    with pytest.raises(StoreError, match=rf"^{re.escape(path)}: manifest\."
                       rf"model\.{field}(\[\d+\])* must be "):
        ca.load_store(store)


class TestStoreIO:
    def test_model_config_is_read_once(self, small_dataset, tiny_model_cfg,
                                       tmp_path):
        ca.train(small_dataset, tiny_model_cfg, TR.TrainConfig(epochs=1),
                 str(tmp_path))
        store = ca.load_store(str(tmp_path))
        assert store.model_config == tiny_model_cfg
        assert store.model_config is store.model_config

    def test_round_trip_bit_exact(self, small_dataset, tiny_model_cfg,
                                  train_cfg, tmp_path):
        ca.train(small_dataset, tiny_model_cfg, train_cfg, str(tmp_path))
        for epoch in range(1, train_cfg.epochs + 1):
            with open(TR._snapshot_path(str(tmp_path), epoch), "rb") as f:
                blob = f.read()
            assert TR.encode_snapshot(TR.decode_snapshot(
                blob, M.param_shapes(tiny_model_cfg))) == blob

    def test_params_stack_the_snapshot_files(self, small_dataset,
                                             tiny_model_cfg, train_cfg,
                                             tmp_path):
        """Each tensor of the store train returns is (E, ...) float32, row i
        the decoded ckpt file of epoch i; train returns what load_store
        reads."""
        store = ca.train(small_dataset, tiny_model_cfg, train_cfg,
                         str(tmp_path))
        loaded = ca.load_store(str(tmp_path))
        assert store.manifest == loaded.manifest
        assert store.params == loaded.params
        shapes = M.param_shapes(tiny_model_cfg)
        assert list(store.params.tensors) == list(shapes)
        for k, v in store.params.tensors.items():
            assert v.shape == (train_cfg.epochs, *shapes[k])
            assert v.dtype == np.float32 and v.flags.writeable
        for i, epoch in enumerate(store.epochs):
            with open(TR._snapshot_path(str(tmp_path), epoch), "rb") as f:
                snap = TR.decode_snapshot(f.read(), shapes)
            for k, v in snap.tensors.items():
                assert np.array_equal(store.params.tensors[k][i], v)
                assert not v.flags.writeable  # a view of the file's bytes

    def test_non_finite_snapshot_refused_naming_it(self, small_dataset,
                                                   tiny_model_cfg, train_cfg,
                                                   tmp_path):
        """A snapshot holding a non-finite float32 value is a numeric fault
        of the store: load_store names the file, its epoch and the tensor."""
        store = ca.train(small_dataset, tiny_model_cfg, train_cfg,
                         str(tmp_path))
        params = M.ModelParams({k: v[1].copy()
                                for k, v in store.params.tensors.items()})
        params.tensors["head.W3"][0, 0] = np.inf
        path = TR._snapshot_path(str(tmp_path), 2)
        with open(path, "wb") as f:
            f.write(TR.encode_snapshot(params))
        with pytest.raises(NumericError, match=re.escape(
                f"{path}: epoch 2: tensor head.W3 holds a non-finite value")):
            ca.load_store(str(tmp_path))

    def test_snapshot_beyond_float32_not_written(self, small_dataset,
                                                 tiny_model_cfg, tmp_path,
                                                 monkeypatch):
        """An epoch whose parameters overflow float32 ends training with a
        NumericError naming the epoch and the tensor before its snapshot is
        written; the epochs before it stay stored and load."""
        encode = TR.encode_snapshot
        calls = []

        def overflowing(params):  # epoch 2's parameters grow past float32
            calls.append(1)
            if len(calls) == 2:
                params = M.ModelParams(dict(params.tensors))
                params.tensors["enc.W"] = params.tensors["enc.W"] * 1e300
            return encode(params)

        monkeypatch.setattr(TR, "encode_snapshot", overflowing)
        with pytest.raises(NumericError, match="^epoch 2: tensor enc.W holds "
                           "a non-finite value in float32; its snapshot is "
                           "not written$"):
            ca.train(small_dataset, tiny_model_cfg, TR.TrainConfig(epochs=3),
                     str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["ckpt_0001.bin",
                                                "manifest.json"]
        assert ca.load_store(str(tmp_path)).epochs == [1]

    def test_snapshot_encoding_round_trip(self, tiny_model_cfg):
        params = ca.init_params(tiny_model_cfg)
        blob = TR.encode_snapshot(params)
        back = TR.decode_snapshot(blob, M.param_shapes(tiny_model_cfg))
        for k, v in params.tensors.items():
            assert np.array_equal(back.tensors[k],
                                  v.astype(np.float32).astype(np.float64))

    def test_retrain_clears_the_previous_run(self, small_dataset,
                                             tiny_model_cfg, tmp_path):
        """A 2-epoch train into a 5-epoch store leaves only its own
        snapshots; other files stay."""
        ca.train(small_dataset, tiny_model_cfg, TR.TrainConfig(epochs=5),
                 str(tmp_path))
        (tmp_path / "notes.txt").write_text("kept\n")
        ca.train(small_dataset, tiny_model_cfg, TR.TrainConfig(epochs=2),
                 str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == [
            "ckpt_0001.bin", "ckpt_0002.bin", "manifest.json", "notes.txt"]

    def test_interrupted_retrain_leaves_no_manifest(self, small_dataset,
                                                    tiny_model_cfg, tmp_path,
                                                    monkeypatch):
        """A retrain stopped after its first snapshot, before its manifest:
        the store does not load (it loaded the old manifest with the new
        snapshot among the old ones before)."""
        ca.train(small_dataset, tiny_model_cfg, TR.TrainConfig(epochs=3),
                 str(tmp_path))
        write_file = TR.write_file

        def stopped(path, *parts):
            if path.endswith("manifest.json"):
                raise KeyboardInterrupt
            return write_file(path, *parts)

        monkeypatch.setattr(TR, "write_file", stopped)
        with pytest.raises(KeyboardInterrupt):
            ca.train(small_dataset, tiny_model_cfg,
                     TR.TrainConfig(epochs=3, shuffle_seed=1), str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["ckpt_0001.bin"]
        with pytest.raises(StoreError, match="no manifest.json"):
            ca.load_store(str(tmp_path))

    def test_truncated_snapshot(self, small_dataset, tiny_model_cfg, train_cfg,
                                tmp_path):
        path = tmp_path / "store"
        ca.train(small_dataset, tiny_model_cfg, train_cfg, str(path))
        snap = path / "ckpt_0003.bin"
        snap.write_bytes(snap.read_bytes()[:50])
        with pytest.raises(StoreError, match="3"):
            ca.load_store(str(path))

    def test_missing_snapshot(self, small_dataset, tiny_model_cfg, train_cfg,
                              tmp_path):
        path = tmp_path / "store"
        ca.train(small_dataset, tiny_model_cfg, train_cfg, str(path))
        os.remove(path / "ckpt_0002.bin")
        with pytest.raises(StoreError, match="ckpt_0002"):
            ca.load_store(str(path))

    def test_bad_magic(self, small_dataset, tiny_model_cfg, train_cfg, tmp_path):
        path = tmp_path / "store"
        ca.train(small_dataset, tiny_model_cfg, train_cfg, str(path))
        snap = path / "ckpt_0001.bin"
        snap.write_bytes(b"XXXXXXXX" + snap.read_bytes()[8:])
        with pytest.raises(StoreError, match="magic"):
            ca.load_store(str(path))

    def test_corrupted_payload_fails_crc(self, small_dataset, tiny_model_cfg,
                                         train_cfg, tmp_path):
        path = tmp_path / "store"
        ca.train(small_dataset, tiny_model_cfg, train_cfg, str(path))
        snap = path / "ckpt_0001.bin"
        blob = bytearray(snap.read_bytes())
        blob[40] ^= 0xFF
        snap.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="checksum"):
            ca.load_store(str(path))

    def test_manifest_records_fingerprints(self, small_dataset, tiny_model_cfg,
                                           train_cfg, tmp_path):
        store = ca.train(small_dataset, tiny_model_cfg, train_cfg,
                         str(tmp_path / "store"))
        fps = store.manifest["fingerprints"]
        from cslaudit.seqdata import dataset_fingerprint, grammar_fingerprint
        assert fps["train_data"] == dataset_fingerprint(small_dataset)
        assert fps["grammar"] == grammar_fingerprint(small_dataset.grammar)
