"""Per-row reference of the model's maths, written from the definitions.

One row at a time: matrix-vector products forward, outer products
backward, a loop over the minibatch's rows in training, and one forward
per position when walking along an ordering.  The package computes the
same quantities over whole blocks with matrix-matrix products; tests
require the two to agree to 1e-12 after summing over rows.

``sample_mask`` is the mask draw done the direct way, one swap of every
row per step; the package makes the same swaps slot-major, and tests
require equal masks and equal draw counts.

``conditional_ordering`` is an inpainted row's whole visit order: the
observed indices shuffled, then the missing ones shuffled, both from the
row's generator.  ``draw_row`` along it keeps the observed prefix, and
the package's ``inpaint`` must make the same draws.
"""

import numpy as np

from nadek import Ordering, Rng
from nadek.numerics import ContractError

PROB_EPS = 1e-12


def sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _phi(activation):
    return np.tanh if activation == "tanh" else sigmoid


def _phi_prime(h, activation):
    return 1.0 - h * h if activation == "tanh" else h * (1.0 - h)


def forward_row(params, config, x, m, mean):
    """States v_0..v_k and hidden tuples of one row."""
    phi = _phi(config.activation)
    v = m * mean + (1.0 - m) * x
    vs, hs = [v], []
    for _ in range(config.k):
        h1 = phi(params.W @ v + params.c)
        if config.n == 3:
            h2 = phi(params.W2 @ h1 + params.c2)
            hs.append((h1, h2))
            top = h2
        else:
            hs.append((h1,))
            top = h1
        v = m * sigmoid(params.V @ top + params.b) + (1.0 - m) * x
        vs.append(v)
    return vs, hs


def _conditional(params, config, x, m, mean, i):
    """Clamped P(x_i = 1) from the last state of one row's forward."""
    p = float(forward_row(params, config, x, m, mean)[0][-1][i])
    return min(max(p, PROB_EPS), 1.0 - PROB_EPS)


def log_prob_row(params, config, x, perm, mean):
    """log p(x | perm): one forward per position, reading one coordinate."""
    m = np.ones_like(x)
    total = 0.0
    for i in perm:
        p = _conditional(params, config, x, m, mean, i)
        total += np.log(p) if x[i] == 1.0 else np.log(1.0 - p)
        m[i] = 0.0
    return total


def draw_row(params, config, x, perm, start, mean, rng):
    """Keep x[perm[:start]], draw the rest along perm, one forward each."""
    x = np.array(x, dtype=np.float64)
    m = np.zeros_like(x)
    m[list(perm[start:])] = 1.0
    x[m == 1.0] = 0.0
    for i in perm[start:]:
        x[i] = float(rng.bernoulli(_conditional(params, config, x, m, mean, i)))
        m[i] = 0.0
    return x


def conditional_ordering(D: int, obs_indices: list[int], rng: Rng) -> Ordering:
    """An ordering that visits every observed index before any missing one.

    Both segments are independently shuffled so repeated draws cover the
    conditional orderings uniformly.
    """
    obs = list(dict.fromkeys(obs_indices))
    if len(obs) != len(obs_indices):
        raise ContractError("observed indices must be distinct")
    if any(i < 0 or i >= D for i in obs):
        raise ContractError("observed index out of range")
    obs_set = set(obs)
    mis = [i for i in range(D) if i not in obs_set]
    rng.shuffle(obs)
    rng.shuffle(mis)
    return Ordering(perm=tuple(obs + mis))


def _ce(v, x, m):
    miss = m == 1.0
    p = np.clip(v[miss], PROB_EPS, 1.0 - PROB_EPS)
    t = x[miss]
    return float(np.sum(-t * np.log(p) - (1.0 - t) * np.log(1.0 - p)))


def loss_row(vs, x, m, objective):
    """D/(missing count) times the cross-entropy of the scored state(s)."""
    gamma = x.shape[0] / np.sum(m)
    k = len(vs) - 1
    if objective == "pretrain":
        return gamma * sum(_ce(vs[t], x, m) for t in range(1, k + 1)) / k
    return gamma * _ce(vs[-1], x, m)


def gradient_row(params, config, x, m, mean, objective):
    """Gradient of loss_row by reverse traversal, as named tensors."""
    vs, hs = forward_row(params, config, x, m, mean)
    k = config.k
    gamma = x.shape[0] / np.sum(m)
    g = {n: np.zeros_like(t) for n, t in params.tensors().items()}
    dv = np.zeros_like(x)
    for t in range(k, 0, -1):
        s = vs[t]
        dz = m * dv * s * (1.0 - s)
        coeff = gamma / k if objective == "pretrain" else (gamma if t == k else 0.0)
        inclamp = ((s > PROB_EPS) & (s < 1.0 - PROB_EPS)).astype(float)
        dz = dz + coeff * m * (s - x) * inclamp
        h1 = hs[t - 1][0]
        top = hs[t - 1][-1]
        g["V"] += np.outer(dz, top)
        g["b"] += dz
        dtop = params.V.T @ dz
        if config.n == 3:
            da2 = dtop * _phi_prime(top, config.activation)
            g["W2"] += np.outer(da2, h1)
            g["c2"] += da2
            da1 = (params.W2.T @ da2) * _phi_prime(h1, config.activation)
        else:
            da1 = dtop * _phi_prime(h1, config.activation)
        g["W"] += np.outer(da1, vs[t - 1])
        g["c"] += da1
        dv = params.W.T @ da1
    return g


def adadelta(state, params, grads, rho, eps):
    """Textbook AdaDelta on dicts of tensors, updating params in place."""
    for name, p in params.tensors().items():
        g = grads[name]
        eg2, edx2 = state[name]
        eg2 = rho * eg2 + (1.0 - rho) * g * g
        delta = -np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g
        edx2 = rho * edx2 + (1.0 - rho) * delta * delta
        state[name] = (eg2, edx2)
        p += delta


def sample_mask(rng, D, rows):
    """Mask block by a partial Fisher-Yates shuffle of each row's indices,
    one fancy-indexed swap of every row per step; every draw is a scalar one."""
    # draw 0 of a row is bounded by D, draw 1 + i by D - i
    steps = np.arange(D - 1)
    bounds = [D, *range(D, 1, -1)]
    draws = np.array([rng.next_below(n) for _ in range(rows) for n in bounds], np.int64)
    draws = draws.reshape(rows, D)
    d = 1 + draws[:, 0]
    # swap i exchanges slots i and i + below(D - i); a row past its d-1
    # swaps only reorders slots >= i, which leaves its prefix as drawn
    swap = steps + draws[:, 1:]
    idx = np.tile(np.arange(D), (rows, 1))
    r = np.arange(rows)
    for i in range(int(d.max()) - 1):
        j = swap[:, i]
        idx[r, i], idx[r, j] = idx[r, j], idx[r, i]
    mask = np.ones((rows, D))
    observed = np.arange(D) < (d - 1)[:, None]
    mask[np.nonzero(observed)[0], idx[observed]] = 0.0
    return mask
