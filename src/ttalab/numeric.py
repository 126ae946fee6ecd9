"""Dense numeric primitives: stable softmax, Shannon entropy, its analytic
gradient, and an entropy-descent simulator that runs one start, a stack of
starts, or a mapping of starts of different K in lock-step.

Probability vectors live in ordinary float64 numpy arrays. Anything that
returns probabilities clamps entries into [EPS_PROB, 1 - EPS_PROB] and
renormalizes, so downstream logs never see zero.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from itertools import accumulate

import numpy as np

from .errors import (InvalidInput, TrainingDiverged, _array, _float_rule,
                     _integer, _real)

# Probability clamp applied before any log; keeps near-one-hot outputs finite.
EPS_PROB = 1e-12


def softmax(z):
    """Numerically stable softmax along the last axis.

    Accepts a (K,) logit vector, an (N, K) batch of rows or an (S, N, K)
    stack, all finite. Entries of the result are clamped to
    [EPS_PROB, 1 - EPS_PROB] and renormalized so each row sums to one and
    every entry is strictly positive.
    """
    return _softmax(_array("logits", z, "[S*] [N*] K", finite=True))


def _last_axis(ufunc, x):
    """ufunc.reduce over the last axis of x, kept broadcastable against x:
    the row layout of an ordinary array."""
    return ufunc.reduce(x, -1, keepdims=True)


def _softmax(z, out=None, rows=_last_axis):
    """``softmax`` of float64 logits already known to be finite, written into
    ``out`` when given: the same bits, without the check. ``rows`` reduces
    each row of z, as _last_axis or a _StartRows layout."""
    shifted = z - rows(np.maximum, z)
    e = np.exp(shifted)
    p = e / rows(np.add, e)
    p = np.minimum(np.maximum(p, EPS_PROB), 1.0 - EPS_PROB)
    return np.divide(p, rows(np.add, p), out=out)


def _validate_probs(p):
    p = _array("probabilities", p, "[S*] [N*] K", finite=True)
    if (p < 0.0).any():
        raise InvalidInput("probabilities must be non-negative")
    sums = p.sum(axis=-1)
    if (np.abs(sums - 1.0) > 1e-9).any():
        raise InvalidInput("probabilities must sum to 1 within 1e-9")
    return p


def entropy(p):
    """Shannon entropy H(p) = -sum_k p_k log p_k, natural log.

    Works row-wise on 2-D input. Entries are clamped at EPS_PROB inside the
    log so exact zeros are tolerated. 0 <= H <= log K.
    """
    return _entropy(_validate_probs(p))


def _entropy(p):
    """``entropy`` of a float64 array already known to hold probabilities,
    such as a ``softmax`` output: the same bits, without the checks."""
    logp = np.log(np.maximum(p, EPS_PROB))
    return -np.add.reduce(p * logp, -1)


def entropy_grad_logits(z):
    """Analytic gradient of H(softmax(z)) with respect to the logits z.

    With p = softmax(z) the gradient is -p_k (log p_k + H(p)). Components sum
    to zero, and the component of the argmax class is <= 0 (strictly negative
    off the uniform point), which is why entropy descent sharpens the largest
    probability.
    """
    return _entropy_grad(softmax(z))


def _entropy_grad(p, rows=_last_axis):
    """-p_k (log p_k + H(p)) row-wise: dH/dz at the logits whose softmax is
    p, with the rows of p laid out as for _softmax."""
    logp = np.log(p)
    h = -rows(np.add, p * logp)
    return -p * (logp + h)


class _StartRows:
    """The row layout of starts laid end to end in one flat buffer.

    A (K,) start is one row of K entries and an (R, K) stack is R rows, each
    start with its own K. Calling the layout reduces each start's rows with
    one ``ufunc.reduce(x, -1, keepdims=True)`` on that start's (R, K) view,
    so each row gets the bits it gets alone, and spreads every row's value
    back over the row's entries.
    """

    def __init__(self, shapes):
        shapes = [shape if len(shape) == 2 else (1,) + shape
                  for shape in shapes]
        ends = [0, *accumulate(r * k for r, k in shapes)]
        firsts = [0, *accumulate(r for r, _ in shapes)]
        self.size = ends[-1]
        self.spans = list(map(slice, ends, ends[1:]))
        self._per_row = np.empty(firsts[-1], dtype=np.float64)
        self._parts = [(span, shape, self._per_row[a:b, None])
                       for span, shape, a, b
                       in zip(self.spans, shapes, firsts, firsts[1:])]
        self._row_of = np.repeat(np.arange(firsts[-1]),
                                 [k for r, k in shapes for _ in range(r)])

    def __call__(self, ufunc, x):
        # out and keepdims passed by position: keywords cost a parse per call
        for span, shape, out in self._parts:
            ufunc.reduce(x[span].reshape(shape), -1, None, out, True)
        return self._per_row[self._row_of]


def simulate_entropy_descent(p0, lr, steps):
    """Gradient descent on the logits of one probability vector, a stack, or
    a mapping of them.

    p0 is a (K,) vector, an (R, K) stack of R starts, or a mapping
    {key: start} whose starts are vectors or stacks of any K. Starts from
    z = log(p0) and iterates z <- z - lr * dH/dz, recording the softmax after
    every step: the trajectory is (steps+1, K), or (steps+1, R, K) for a
    stack, and its row 0 is p0 itself; a mapping gives {key: trajectory}.
    All starts descend in lock-step through one flat buffer, and each
    trajectory is a view into one (steps+1, total entries) array. Rows are
    bitwise independent: traj[:, r] equals the call on p0[r] alone, and a
    mapping's trajectory equals the call on its start alone. The probability
    of each start's initially-largest class never decreases along its
    trajectory. A step that overflows raises TrainingDiverged naming it.
    """
    starts = dict(p0) if isinstance(p0, Mapping) else {None: p0}
    for key, start in starts.items():
        starts[key] = _validate_probs(_array("p0", start, "[R*] K"))
    lr = _real("lr", lr, "finite and positive")
    steps = _integer("steps", steps, 0)
    rows = _StartRows(start.shape for start in starts.values())
    flat = np.empty((steps + 1, rows.size), dtype=np.float64)
    trajs = {}
    for (key, start), span in zip(starts.items(), rows.spans):
        trajs[key] = flat[:, span].reshape((steps + 1,) + start.shape)
        trajs[key][0] = start
    z = np.log(np.maximum(flat[0], EPS_PROB))
    p = _softmax(z, rows=rows)
    # z starts finite: only a step can break the floating-point rule
    with _float_rule(lambda e: TrainingDiverged(
            f"entropy descent diverged at step {t}: {e}")):
        for t in range(1, steps + 1):
            z = z - lr * _entropy_grad(p, rows=rows)
            p = _softmax(z, out=flat[t], rows=rows)
    return trajs if isinstance(p0, Mapping) else trajs[None]


def _column_runs(bits):
    """Group the columns of a 2-D int64 array that are equal in every row.

    Returns the first column of each group, in column order, and the runs
    of consecutive columns in one group as two lists: each run's group and
    its length. A column is keyed on the hash of its bytes and each hash
    match is confirmed in full, so no copy of a column is kept and a
    collision only opens a group.
    """
    firsts, groups, lengths, by_hash = [], [], [], {}
    for j, col in enumerate(bits.T):
        bucket = by_hash.setdefault(hash(col.tobytes()), [])
        for g in bucket:
            if np.array_equal(bits[:, firsts[g]], col):
                break
        else:
            g = len(firsts)
            firsts.append(j)
            bucket.append(g)
        if groups and groups[-1] == g:
            lengths[-1] += 1
        else:
            groups.append(g)
            lengths.append(1)
    return firsts, groups, lengths


def trajectory_csv(trajectory, out):
    """Write a descent trajectory as CSV, header step,p_1,...,p_K, to the
    text stream ``out``, one row at a time, so one row's text is held at
    once; nothing is written if the trajectory is rejected.

    Columns whose bits are equal in every row are grouped once per
    trajectory, so -0.0 and 0.0 stay apart. Each row formats one repr per
    group and writes each run of consecutive equal columns by one string
    repeat: the same bytes as a repr per cell. A descent keeps equal classes
    bitwise equal, so a start of one class above K-1 tied ones has two
    groups in two runs.
    """
    # start r of a stack is written as traj[:, r]
    trajectory = _array("trajectory", trajectory, "steps+1* K*")
    k = trajectory.shape[1]
    out.write("step," + ",".join(f"p_{i + 1}" for i in range(k)) + "\n")
    firsts, groups, lengths = _column_runs(trajectory.view(np.int64))
    firsts = np.array(firsts, dtype=np.intp)
    # row by row: gathering the groups of the whole trajectory at once
    # would hold a copy of every distinct column
    for step, row in enumerate(trajectory):
        text = list(map(",".__add__, map(repr, row[firsts].tolist())))
        # one string repeat per run
        cells = "".join(map(operator.mul, map(text.__getitem__, groups),
                            lengths))
        # with K = 0 a row still ends its step with a comma
        out.write(str(step) + (cells or ",") + "\n")
