"""Entropy-based test-time adaptation on a small batch-normalized network,
with a mini-batch k-means companion and a synthetic corruption benchmark."""

from .adaptation import (AdaptationConfig, Adapter, Window,
                         accumulate_and_maybe_step, default_q, flip_signal,
                         rla_forward, tent_loss, ttc_loss)
from .benchmark import (Corruption, RunReport, SignalDataset, StreamProtocol,
                        accuracy_score, adapt_streams, apply_corruption,
                        generate_dataset, stream_eval, train_source)
from .clustering import (assign_step, kmeans_objective, run_minibatch_kmeans,
                         update_step)
from .errors import InvalidInput, TrainingDiverged, TTALabError
from .network import (BatchNormLayer, BNMode, DenseLayer, Network,
                      backward_bn_affine, forward, load_checkpoint,
                      make_network, penultimate_features, save_checkpoint)
from .numeric import (entropy, entropy_grad_logits, simulate_entropy_descent,
                      softmax)

__version__ = "0.1.0"
