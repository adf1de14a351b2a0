"""Hadamard-codebook online hashing.

A streaming supervised binary-code learner: class labels are assigned
orthogonal Hadamard codewords on the fly, reduced to the working bit
length by seeded random-projection LSH, and fitted by single-instance
SGD under a tanh relaxation.  Retrieval quality is measured by Hamming
ranking (mAP, Precision@K, and the AUC of mAP-vs-instances curves).
"""

from .codec import BinaryCodeSet, encode, load_code_set, pack_bits, save_code_set
from .data import (Dataset, SplitSpec, load_dense, load_idx, load_labels,
                   normalize, save_dense, save_labels, split, split_indices,
                   stream)
from .errors import (CodebookExhaustedError, ConfigError, DimensionError,
                     FormatError, HcohError, InvalidOrderError,
                     NumericFailureError, UndefinedAPError)
from .evaluation import (EvalReport, average_precision, evaluate,
                         map_curve_auc, precision_at_k, rank)
from .hadamard import HadamardCodebook, codeword_order
from .learner import (HashModel, init_model, loss, relaxed_codes, sgd_step,
                      train_stream)
from .lsh import LshReducer
from .pipeline import RunConfig, Seeds, TrainResult, derive_seeds, run_repeats, run_training

__version__ = "0.1.0"
