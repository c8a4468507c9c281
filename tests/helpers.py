"""Helpers the tests share: scalar losses, finite differences, the group action.

A scalar loss reduces with primitives the model runs: the flattened output
times a fixed weight column (`ad.matmul`), reshaped to a 0-d tensor.
"""

import numpy as np

import svpoint.autodiff as ad
from svpoint.svcore import SVFeature, _data


def weighted_sum(x, weights) -> ad.Tensor:
    """sum(x * weights) as a 0-d tensor: a (1, size) by (size, 1) matmul."""
    return ad.reshape(ad.matmul(ad.reshape(x, (1, -1)), np.reshape(weights, (-1, 1))), ())


def total(x) -> ad.Tensor:
    """The sum of every entry of x, as a 0-d tensor: the sums along the
    last axis, then their sum. Each matmul adds fewer terms than one flat
    dot would, so the loss rounds less and FD checks of linear ops stay
    near their floor."""
    rows = ad.reshape(x, (-1, x.shape[-1]))
    row_sums = ad.matmul(rows, np.ones((x.shape[-1], 1)))
    return ad.reshape(ad.matmul(np.ones((1, rows.shape[0])), row_sums), ())


def weighted(op, seed=0):
    """Wrap an array-valued op into a scalar one with fixed random weights,
    drawn from `seed` at the shape of the op's output."""
    cache = {}

    def scalar_op(*inputs):
        out = op(*inputs)
        if "w" not in cache:
            cache["w"] = np.random.default_rng(seed).standard_normal(out.data.shape)
        return weighted_sum(out, cache["w"])

    return scalar_op


def finite_difference_check(op, inputs: list[ad.Tensor], h: float = 1e-6) -> float:
    """Max deviation between tape gradients and central differences.

    `op` maps the input tensors to a scalar Tensor. The deviation is the
    largest elementwise |ad - fd| normalized by the largest gradient
    magnitude seen, so a 1e-4 bound means 4 matching leading digits on
    unit-scale problems.
    """
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    with ad.Tape() as tape:
        loss = op(*inputs)
    tape.backward(loss)
    worst = 0.0
    for t in inputs:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        fd = np.zeros_like(t.data)
        for ix in np.ndindex(*t.data.shape):
            orig = t.data[ix]
            t.data[ix] = orig + h
            hi = float(op(*inputs).data)
            t.data[ix] = orig - h
            lo = float(op(*inputs).data)
            t.data[ix] = orig
            fd[ix] = (hi - lo) / (2 * h)
        scale = max(np.abs(grad).max(initial=0.0), np.abs(fd).max(initial=0.0), 1e-12)
        worst = max(worst, float(np.abs(grad - fd).max(initial=0.0)) / scale)
    return worst


def rotate_vectors(vectors, rot) -> np.ndarray:
    """Rotate a (3, q, N) vector tensor coordinate-wise: V -> R.V."""
    vectors = np.asarray(vectors, dtype=np.float64)
    return np.einsum("ij,jqn->iqn", rot.matrix, vectors)


def rotate_feature(feat: SVFeature, rot) -> SVFeature:
    """The group action on a feature: scalars untouched, vectors rotated."""
    return SVFeature(_data(feat.scalars), rotate_vectors(_data(feat.vectors), rot))
