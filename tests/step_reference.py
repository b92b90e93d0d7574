"""Reference of one training step and of one scored pair, as plain expressions.

The loss, gradient, weight decay and AdaDelta update written the direct
way: both logs at every coordinate of the loss, fresh zero accumulators
and a new array for every intermediate.  The package takes one log per
coordinate and computes the gradient and the update into reused buffers;
tests require the two to agree bit for bit (up to the sign of a zero in a
gradient).

``log_prob_ordering`` is the staircase of one (x, ordering) pair written
the same way: the permuted weights copied for the pair, every step's
state and activations in fresh arrays, and the clamp blended over whole
blocks.  The package scores pairs on reused buffers; tests require the
two to agree bit for bit.
"""

import numpy as np

from nadek import ModelParams
from nadek.numerics import BLOCK_ROWS, PROB_EPS, single_threaded_blas


def row_ce(v, x, m):
    p = np.clip(v, PROB_EPS, 1.0 - PROB_EPS)
    return np.sum(m * (-x * np.log(p) - (1.0 - x) * np.log(1.0 - p)), axis=-1)


def row_losses(traj, x, objective):
    m = traj.mask
    gamma = m.shape[-1] / np.sum(m, axis=-1)
    if objective == "pretrain":
        k = traj.k_used
        return gamma * sum(row_ce(traj.v_states[t], x, m) for t in range(1, k + 1)) / k
    return gamma * row_ce(traj.v_states[-1], x, m)


def _phi_prime(h, activation):
    if activation == "tanh":
        return 1.0 - h * h
    return h * (1.0 - h)


def backward(params, config, traj, x, objective, *, out=None):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m = np.atleast_2d(traj.mask)
    k = traj.k_used
    gamma = (m.shape[-1] / np.sum(m, axis=-1))[:, None]
    coeff = gamma / k if objective == "pretrain" else gamma
    grads = ModelParams(**{n: np.zeros_like(t) for n, t in params.tensors().items()})
    act = config.activation
    dv = np.zeros_like(x)
    for t in range(k, 0, -1):
        s = np.atleast_2d(traj.v_states[t])
        dz = m * dv * s * (1.0 - s)
        if objective == "pretrain" or t == k:
            inclamp = ((s > PROB_EPS) & (s < 1.0 - PROB_EPS)).astype(np.float64)
            dz = dz + coeff * m * (s - x) * inclamp
        hidden = [np.atleast_2d(h) for h in traj.h_states[t - 1]]
        if config.n == 3:
            h1, h2 = hidden
            top = h2
        else:
            (h1,) = hidden
            top = h1
        grads.V[...] += dz.T @ top
        grads.b[...] += dz.sum(axis=0)
        dtop = dz @ params.V
        if config.n == 3:
            da2 = dtop * _phi_prime(h2, act)
            grads.W2[...] += da2.T @ h1
            grads.c2[...] += da2.sum(axis=0)
            da1 = (da2 @ params.W2) * _phi_prime(h1, act)
        else:
            da1 = dtop * _phi_prime(h1, act)
        grads.W[...] += da1.T @ np.atleast_2d(traj.v_states[t - 1])
        grads.c[...] += da1.sum(axis=0)
        if t > 1:
            dv = da1 @ params.W
    if out is None:
        return grads
    # the package's backward writes into the caller's params when given them
    for name, t in out.tensors().items():
        t[...] = grads.tensors()[name]
    return out


def add_weight_decay(grads, params, lam):
    if lam != 0.0:
        grads.W[...] += 2.0 * lam * params.W
        grads.V[...] += 2.0 * lam * params.V
        if grads.W2 is not None:
            grads.W2[...] += 2.0 * lam * params.W2
    return grads


def adadelta_step(state, params, grads):
    rho = state.rho
    eps = state.epsilon
    tensor_sets = (params, grads, state.eg2, state.edx2)
    for p, g, eg2, edx2 in zip(*(t.tensors().values() for t in tensor_sets)):
        eg2[...] = rho * eg2 + (1.0 - rho) * g * g
        delta = -np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g
        edx2[...] = rho * edx2 + (1.0 - rho) * delta * delta
        p += delta
    return params, state


def sigmoid(v):
    """exp(min(x, 0)) / (1 + exp(-|x|)), with exp(-|x|) = exp(min(x, -x))."""
    e = np.exp(np.minimum(v, -v))
    return np.maximum((v >= 0.0) * 1.0, e) / (1.0 + e)


def _top(W, c, V, b, params, config, a1, m, keep_x):
    """The top hidden activations of the last of config.k steps from a1."""
    phi = np.tanh if config.activation == "tanh" else sigmoid
    a = a1
    for t in range(config.k):
        if t:
            v = m * sigmoid(top @ V.T + b) + keep_x
            a = v @ W.T + c
        h = phi(a)
        top = phi(h @ params.W2.T + params.c2) if config.n == 3 else h
    return top


def log_prob_ordering(params, config, x, o, mean):
    D = config.D
    perm = np.array(o.perm)
    W, V, b = params.W[:, perm], params.V[perm], params.b[perm]
    x, mean = x[perm], mean[perm]
    total = 0.0
    with single_threaded_blas():
        for start in range(0, D, BLOCK_ROWS):
            rows = np.arange(min(BLOCK_ROWS, D - start))
            c = params.c + W[:, :start] @ x[:start]
            a1 = np.zeros((len(rows), len(c)))
            step = W[:, start + rows[:-1]].T * (x - mean)[start + rows[:-1], None]
            np.cumsum(step, axis=0, out=a1[1:])
            a1 += c + W[:, start:] @ mean[start:]
            mask = (np.arange(D - start) >= rows[:, None]).astype(np.float64)
            keep_x = (1.0 - mask) * x[start:]
            top = _top(W[:, start:], c, V[start:], b[start:], params, config, a1, mask, keep_x)
            z = np.einsum("ij,ij->i", V[start:][rows], top) + b[start:][rows]
            p = np.clip(sigmoid(z), PROB_EPS, 1.0 - PROB_EPS)
            total += float(np.sum(np.where(x[start + rows] == 1.0, np.log(p), np.log(1.0 - p))))
    return total
