"""Annotation-error detection for phase-labeled sequences.

Trains a small temporal frame classifier with a checkpoint saved every epoch,
then audits sequences by averaging per-frame cross-entropy over all saved
checkpoints (the cumulative sample loss). Frames that stay hard to fit across
the whole training run are flagged as likely annotation errors.
"""

from .seqdata import (CorruptionSpec, Dataset, PhaseGrammar, SequenceSample,
                      corrupt_dataset, generate_dataset, read_dataset,
                      write_dataset)
from .model import ModelConfig, ModelParams, backward, forward, init_params
from .trainer import (CheckpointStore, ClassWeights, TrainConfig,
                      compute_class_weights, load_store, save_store, train)
from .csl import (CslProfile, DetectionConfig, LossTrajectory, audit_dataset,
                  audit_sequence, calibrate_tau, compute_csl,
                  eval_loss_trajectory, flag_percentile, flag_threshold,
                  frames_to_segments, smooth_csl, trajectory_curvature)
from .metrics import (EvalInput, MetricsReport, auc_bruteforce, build_report,
                      eda, micro_auc)

__version__ = "0.1.0"
