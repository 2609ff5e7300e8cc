"""nbdistill: turn teacher n-best lists into pseudo-labels for distillation.

The toolkit assembles per-hypothesis feature matrices (consensus utilities,
length features, teacher scores and external model scores), learns log-linear
reranking weights with batch k-best MIRA against a tune set, selects a sparse
model subset by weight magnitude, reranks to emit pseudo-labels, and
orchestrates iterative self-training around user-supplied generation and
scoring commands.
"""

from .corpus import (
    ExternalScoreTable,
    FormatError,
    NBestCorpus,
    ReferenceSet,
    SourceCorpus,
    load_nbest,
    load_references,
    load_scores,
    load_sources,
    write_nbest,
    write_pseudo_labels,
)
from .distill import kd_top1, ki_select, rerank_labels
from .features import FeatureMatrix, assemble_matrix, length_features, mbr_utility
from .metrics import (
    BleuScore,
    ChrFScore,
    HypStats,
    NGramStats,
    corpus_bleu,
    corpus_chrf,
    corpus_stats,
    hyp_stats,
    sentence_bleu,
    sentence_chrf,
    sentence_stats,
    tokenize_13a,
)
from .mira import MiraConfig, TuneRun, WeightVector, tune_mira
from .pipeline import IterationState, PipelineConfig, run_iteration, run_selftrain
from .rerank import (
    RerankResult,
    SelectionMask,
    beam_sweep,
    oracle_select,
    rerank,
    select_models,
)

__version__ = "0.1.0"
