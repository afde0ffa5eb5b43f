"""Annotation-error detection for phase-labeled sequences.

Trains a small temporal frame classifier with a checkpoint saved every epoch,
then audits sequences by averaging per-frame cross-entropy over all saved
checkpoints (the cumulative sample loss). Frames that stay hard to fit across
the whole training run are flagged as likely annotation errors. `seqdata`,
`model`, `trainer`, `csl` and `metrics` load on first attribute access, so
each command compiles and runs only the modules it uses; `errors`, `fileio`
and `metrics` import no numpy, so neither does `import cslaudit` or `eval`.
"""

import importlib.util
import sys

from . import errors, fileio  # every command needs these

_PUBLIC = {  # module -> the public names it defines
    "seqdata": "CorruptionSpec Dataset PhaseGrammar SequenceSample "
               "corrupt_dataset generate_dataset read_dataset write_dataset",
    "model": "ModelConfig backward forward init_params",
    "trainer": "CheckpointStore TrainConfig "
               "compute_class_weights load_store train",
    "csl": "CslProfile DetectionConfig audit_dataset "
           "eval_loss_trajectory trajectory_curvature",
    "metrics": "EvalInput auc_bruteforce build_report calibrate_tau eda "
               "frames_to_segments micro_auc",
}
_HOME = {n: mod for mod, names in _PUBLIC.items() for n in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def _register_lazy(name: str) -> None:
    """The importlib LazyLoader recipe, once per module: a second find_spec
    would read the module's __spec__ and so load it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


for _name in ("seqdata", "model", "trainer", "csl", "metrics"):
    _register_lazy(_name)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
