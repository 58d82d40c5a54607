"""Message-passing neural ODEs for coupled dynamical systems.

Per-node dynamics models with shared weights coordinate through learned
message variables exchanged along a coupling graph. The package covers the
full experiment lifecycle: ground-truth data generation, training,
finetuning, zero-shot evaluation, ablations, and analysis.
"""

from .autodiff import Tape, Tensor, finite_diff_check
from .datasets import (NormStats, TrajectorySet, generate_dataset, load_dataset,
                       sample_initial_states, save_dataset, split_train_val,
                       zscore_apply, zscore_fit, zscore_invert)
from .dynamics import (GeneParams, KuramotoParams, LorenzParams, PendulumParams,
                       SystemSpec, rk4_step, simulate_trajectory)
from .graphs import (GraphSpec, gen_barabasi_albert, gen_erdos_renyi,
                     gen_fixed_degree, gen_fully_connected_weighted,
                     gen_watts_strogatz)
from .model import (Checkpoint, MpNodeModel, init_model, load_checkpoint,
                    mlp_forward, rollout, rollout_batch, save_checkpoint)
from .training import (AdamState, RunRecord, TrainConfig, adam_step, finetune,
                       huber_time_loss, init_adam, mse_loss, train)
from .analysis import (EvalReport, PcaResult, emit_plot, epochs_times_min_error,
                       evaluate, jacobi_eigh, message_norms, pca_messages)

__version__ = "0.1.0"
