"""Work counts computed from array shapes, not measured.

They change only when a change alters the arithmetic of a training step or
the size of the parameters, so they separate "does less work" from "does the
same work faster". ``check_against_step`` ties each formula to the arrays of
one real step. Every workload uses the MLP image tower.
"""

from __future__ import annotations

import numpy as np

from imglex.model import ModelParams
from imglex.training import Batch, LossReport, OptimizerState

# B x B float64 arrays one training step (forward + backward) materialises:
#   forward:  cosines, logits = scale * cosines, shifted = logits - max,
#             exp(shifted) (summed for the log-sum-exp)
#   backward: shifted - lse, probs = exp(...), g (logit gradient, scaled in
#             place), g * cosines for the row sums, g * cosines for the
#             column sums
BXB_ARRAYS_PER_STEP = 9


def flops_per_step(batch: int, emb_dim: int, feature_dim: int, hidden_dim: int) -> int:
    """Flops (2 per multiply-add) of the step's matmuls.

    Cosine matrix, dQ = g @ I_hat and dI = g.T @ Q_hat: 3 x (B x B x n).
    MLP tower: forward F @ V.T, H @ U.T; backward dOut @ U, dPre.T @ F,
    dOut.T @ H.
    """
    b, d, m, n = batch, feature_dim, hidden_dim, emb_dim
    cosine = 3 * 2 * b * b * n
    forward = 2 * b * (d * m + m * n)
    backward = 2 * b * (n * m + m * d + n * m)
    return cosine + forward + backward


def bxb_bytes_per_step(batch: int, itemsize: int = 8) -> int:
    """Bytes of the B x B arrays listed in BXB_ARRAYS_PER_STEP."""
    return BXB_ARRAYS_PER_STEP * batch * batch * itemsize


def param_bytes(num_rows: int, emb_dim: int, feature_dim: int, hidden_dim: int, itemsize: int = 8) -> int:
    """Embeddings + MLP weights and biases, plus an Adagrad accumulator of each."""
    d, m, n = feature_dim, hidden_dim, emb_dim
    return 2 * itemsize * (num_rows * n + m * d + m + n * m + n)


def measured_param_bytes(params: ModelParams, opt: OptimizerState) -> int:
    """The same quantity from ``nbytes`` of the live arrays."""
    t, a = params.tower, opt.mlp_accum
    arrays = [params.embeddings.rows, opt.emb_accum, t.V, t.b1, t.U, t.b2, a.V, a.b1, a.U, a.b2]
    return int(sum(x.nbytes for x in arrays))


def check_against_step(params: ModelParams, opt: OptimizerState, batch: Batch, report: LossReport) -> list[str]:
    """Problems found when the formulas are compared with one real step."""
    problems = []
    b, n, t = batch.size, params.emb_dim, params.tower
    if report.logits.shape != (b, b) or report.logits.dtype != np.float64:
        problems.append(f"logits are {report.logits.shape} {report.logits.dtype}, counted as ({b}, {b}) float64")
    if bxb_bytes_per_step(b) != BXB_ARRAYS_PER_STEP * report.logits.nbytes:
        problems.append("bxb_bytes_per_step disagrees with the logits' nbytes")
    if batch.images.shape != (b, t.feature_dim) or t.V.shape != (t.hidden_dim, t.feature_dim) or t.U.shape != (n, t.hidden_dim):
        problems.append("MLP shapes differ from the ones flops_per_step counts")
    computed = param_bytes(params.embeddings.num_rows, n, t.feature_dim, t.hidden_dim)
    measured = measured_param_bytes(params, opt)
    if computed != measured:
        problems.append(f"param_bytes {computed} != nbytes {measured}")
    return problems
