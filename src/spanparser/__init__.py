"""Span-based constituency parsing with a factored self-attentive encoder.

The pipeline: treebank trees are unary-collapsed and binarized with a dummy
label; a self-attentive encoder (content/position factored or not) turns
tagged sentences into per-fencepost annotations; spans are scored by a small
feed-forward network; CKY decodes the best tree; training minimizes a
margin loss with loss-augmented decoding.
"""

from .autodiff import DimensionError, Tensor, backward, one_blas_thread
from .chart import (SpanScorer, all_spans, build_chart, cky_decode,
                    fenceposts, hamming_delta, hinge_loss,
                    loss_augmented_decode, margin_loss, span_vectors,
                    tree_score)
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import (AttentionControl, Encoder, EncoderConfig,
                      assemble_block_sparse, build_window_mask, compose_input)
from .evaluation import EvalResult, format_report, score, tree_brackets
from .lexical import (LexicalConfig, LexicalModel, read_vector_file,
                      write_vector_file)
from .model import SpanParser
from .optim import Parameter, ParameterStore, adam_step
from .toydata import toy_treebank
from .training import TrainConfig, TrainResult, TrainState, lr_schedule, train
from .trees import (BinaryTree, ParseError, Tree, binarize, collapse_unary,
                    debinarize, expand_unary, gold_spans, load_tagged,
                    load_trees, parse_bracketed, parse_tagged,
                    render_bracketed, save_trees)
from .vocab import LabelInventory, Vocabulary

__version__ = "0.1.0"
