"""convctc: convolutional CTC sequence labeling on plain numpy.

Maxout 2D conv stacks with frequency-only pooling feed a per-frame softmax
and a log-domain CTC loss; training uses Adam then SGD fine-tuning.  All
backward passes are hand-written and verified against finite differences
and a brute-force alignment oracle (see convctc.verify).
"""

from .ctc import Alphabet, best_path_decode, collapse, ctc_grad, ctc_loss, enumerate_oracle
from .features import NormalizationStats, assemble_input, compute_deltas, fit_normalization
from .network import (ConvSpec, DenseSpec, DropoutSpec, Network, NetworkConfig,
                      PoolSpec, figure3_config)
from .optim import adam_step, init_uniform, make_optimizer, sgd_step
from .tensor import ShapeError, load_tensor, logsumexp, save_tensor

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "ConvSpec", "DenseSpec", "DropoutSpec", "Network",
    "NetworkConfig", "NormalizationStats", "PoolSpec", "ShapeError",
    "adam_step", "assemble_input", "best_path_decode", "collapse",
    "compute_deltas", "ctc_grad", "ctc_loss", "enumerate_oracle",
    "figure3_config", "fit_normalization", "init_uniform", "load_tensor",
    "logsumexp", "make_optimizer", "save_tensor", "sgd_step",
]
