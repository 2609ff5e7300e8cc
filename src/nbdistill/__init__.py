"""nbdistill: turn teacher n-best lists into pseudo-labels for distillation.

The toolkit assembles per-hypothesis feature matrices (consensus utilities,
length features, teacher scores and external model scores), learns log-linear
reranking weights with batch k-best MIRA against a tune set, selects a sparse
model subset by weight magnitude, reranks to emit pseudo-labels, and
orchestrates iterative self-training around user-supplied generation and
scoring commands.

Library code imports from the submodules (``nbdistill.corpus``,
``nbdistill.metrics``, ``nbdistill.features``, ``nbdistill.mira``,
``nbdistill.rerank``, ``nbdistill.distill``, ``nbdistill.pipeline``).  The
package itself imports none of them, so ``import nbdistill`` loads no numpy
and the CLI can choose its BLAS thread count before numpy loads.
"""

__version__ = "0.1.0"
