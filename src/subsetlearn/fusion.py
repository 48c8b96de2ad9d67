"""Final feature construction and the linear classifier on top of it:
l2 normalization, max-voting concatenation of the base feature with the K
subset features, and a one-vs-all linear SVM trained by a deterministic
subgradient solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import ContractError, ShapeError

_ZERO_NORM = 1e-12

# default regularization and epoch count of the one-vs-all SVM, for the system
# and for the feature-protocol baseline alike
SVM_LAMBDA = 1e-4
SVM_EPOCHS = 200


@dataclass(frozen=True)
class SvmModel:
    """One-vs-all linear classifier: one hinge-loss separator per class.

    checkpoint_objectives[i, c] is the regularized objective of class c's
    solver output at checkpoint_epochs[i]; it is non-increasing down each
    column by construction.
    """

    weights: np.ndarray  # (C, D)
    biases: np.ndarray  # (C,)
    lam: float
    checkpoint_epochs: tuple[int, ...]
    checkpoint_objectives: np.ndarray  # (len(checkpoint_epochs), C)


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Each row over its l2 norm, except rows with norm <= 1e-12 pass through
    unchanged (a dead relu column legitimately produces zeros; the pipeline
    must not abort)."""
    norms = np.sqrt((m * m).sum(axis=-1, keepdims=True))
    safe = np.where(norms > _ZERO_NORM, norms, 1.0)
    return m / safe


def fuse_batch(base_feats: np.ndarray, subset_feats: np.ndarray, chosen: np.ndarray, k: int) -> np.ndarray:
    """Each l2-normalized base feature, then k subset blocks in fixed subset
    order: (B, D_base + k * D_subset).  The only place a fused row is built.

    Max voting: block chosen[b] holds the l2-normalized subset_feats[b], the
    chosen subset net's feature, and the other k - 1 blocks are zero.
    """
    base_feats = numkit.as_matrix(base_feats, "base_feats")
    subset_feats = numkit.as_matrix(subset_feats, "subset_feats")
    b, d = subset_feats.shape
    if b != base_feats.shape[0]:
        raise ShapeError("subset features must be (B, D) aligned with base features")
    chosen = numkit.as_ints(chosen, "chosen")
    if chosen.shape != (b,) or (chosen.size and (chosen.min() < 0 or chosen.max() >= k)):
        raise ContractError("chosen indices must be (B,) values in [0, K)")
    fused = np.zeros((b, base_feats.shape[1] + k * d))
    fused[:, : base_feats.shape[1]] = l2_normalize_rows(base_feats)
    blocks = fused[:, base_feats.shape[1] :].reshape(b, k, d)  # a view: splitting the last axis copies nothing
    blocks[np.arange(b), chosen] = l2_normalize_rows(subset_feats)
    return fused


def svm_train(
    features: np.ndarray,
    labels,
    lam: float = SVM_LAMBDA,
    epochs: int = SVM_EPOCHS,
) -> SvmModel:
    """Train C one-vs-all hinge classifiers (+1 for the class, -1 otherwise).

    Solver: deterministic full-batch subgradient descent with the bounded
    1 / (1 + lam * t) step schedule (same 1 / (lam * t) asymptotics, sane
    early steps), projection onto the ball of radius 1/sqrt(lam), and prefix
    iterate averaging.  Per class, the returned model is the best-objective
    prefix average seen so far (the zero model counts as the t=0 candidate),
    which makes the per-class objective non-increasing over checkpoints and
    never worse than the zero model.  The solver draws no random numbers.

    An epoch costs two products with the features.  The bias is the weight
    of a constant-one feature row, kept out of the weight decay, the
    projection and the regularizer.  The scores of iterate t are
    the margins of epoch t + 1 and are summed, so the averaged iterate's
    scores are that sum over t and need no product of their own.
    """
    features = numkit.as_matrix(features, "features")
    labels = numkit.as_ints(labels)
    if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
        raise ShapeError("labels must be 1-d and match the feature rows")
    classes = np.unique(labels)
    c = classes.size
    if c < 2:
        raise ContractError("svm_train needs at least two classes")
    if not np.array_equal(classes, np.arange(c)):
        raise ContractError("labels must be dense class indices 0..C-1")
    n, d = features.shape
    if n < c:
        raise ContractError("need at least as many rows as classes")
    if lam <= 0:
        raise ContractError("lam must be positive")
    if epochs < 1:
        raise ContractError("epochs must be >= 1")
    finite_rows = np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        raise ContractError(f"features row {int(np.argmin(finite_rows))} is not finite")

    rows = np.ones((d + 1, n))  # features transposed, plus the bias row
    rows[:d] = features.T
    regularized = np.zeros(rows.shape[0])  # 1 for a weight, 0 for the bias
    regularized[:d] = 1.0
    y = np.where(labels == np.arange(c)[:, None], 1.0, -1.0)  # (C, N)
    w = np.zeros((c, rows.shape[0]))
    weights = w[:, :d]  # the view of w that is decayed and projected
    w_sum = np.zeros_like(w)
    best = np.zeros_like(w)
    squares = np.empty_like(w)
    best_obj = np.full(c, 1.0)  # objective of the zero model: mean hinge is exactly 1
    margins = np.zeros((c, n))  # y * scores of the current iterate
    margin_sum = np.zeros((c, n))  # y * scores summed over iterates 1..t
    work = np.empty((c, n))
    radius_sq = 1.0 / lam  # the projection radius 1/sqrt(lam), squared

    checkpoints = tuple(sorted({1, max(1, epochs // 2), epochs}))
    recorded = np.zeros((len(checkpoints), c))
    for t in range(1, epochs + 1):
        eta = 1.0 / (1.0 + lam * t)
        np.less(margins, 1.0, out=work)
        work *= y  # y where the hinge is active, else 0
        weights *= 1.0 - eta * lam
        w += (eta / n) * (work @ rows.T)
        sq_norms = np.square(w, out=squares) @ regularized
        over = sq_norms > radius_sq
        if over.any():
            weights[over] *= np.sqrt(radius_sq / sq_norms[over])[:, None]
        w_sum += w
        np.matmul(w, rows, out=margins)
        margins *= y
        margin_sum += margins
        np.subtract(t, margin_sum, out=work)  # t * (1 - margin of the averaged iterate)
        np.maximum(work, 0.0, out=work)
        avg_sq_norms = np.square(w_sum, out=squares) @ regularized / (t * t)
        obj = work.sum(axis=1) / (n * t) + 0.5 * lam * avg_sq_norms
        better = obj < best_obj
        if better.any():
            best_obj = np.where(better, obj, best_obj)
            np.divide(w_sum, t, out=best, where=better[:, None])
        if t in checkpoints:
            recorded[checkpoints.index(t)] = best_obj
    return SvmModel(
        weights=best[:, :d].copy(),
        biases=best[:, d].copy(),
        lam=float(lam),
        checkpoint_epochs=checkpoints,
        checkpoint_objectives=recorded,
    )


def svm_predict_batch(model: SvmModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(predicted classes, scores W x + b) for a batch of feature rows; ties go
    to the lowest class index.  A row's scores are the same bytes however
    many rows share the call (numkit.invariant_matmul)."""
    features = numkit.as_matrix(features, "features")
    if features.shape[1] != model.weights.shape[1]:
        raise ShapeError(
            f"feature width {features.shape[1]} does not match model width {model.weights.shape[1]}"
        )
    scores = numkit.invariant_matmul(features, model.weights.T) + model.biases
    return np.argmax(scores, axis=1), scores
