"""Mini-batch k-means with explicit assign and update steps.

Centers are a (k, d) float array, assignments an int vector. The assign
step is the nearest-center rule with ties broken toward the lowest index;
the update step is either an exact per-cluster mean (full batch) or the
count-weighted streaming mean used by mini-batch k-means.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, _array, _integer

FULL_BATCH = "full_batch"
MINIBATCH_RUNNING = "minibatch_running"


def _squared_distances(features, centers):
    # explicit difference keeps distances bitwise equal to a double loop
    diff = features[:, None, :] - centers[None, :, :]
    return np.sum(diff * diff, axis=-1)


def assign_step(features, centers):
    """Assign each point to its nearest center (lowest index wins ties)."""
    centers = _array("centers", centers, "k d")
    features = _array("features", features, "n* d", d=centers.shape[1])
    return np.argmin(_squared_distances(features, centers), axis=1)


def _checked(features, assignment, centers):
    """(n, d) float64 features, the assignment as an (n,) integer vector of
    indices in [0, k), and (k, d) float64 centers; InvalidInput naming the
    argument otherwise."""
    centers = _array("centers", centers, "k d")
    features = _array("features", features, "n* d", d=centers.shape[1])
    assignment = _array("assignment", assignment, "n*", kind="i",
                        n=len(features))
    k = len(centers)
    if assignment.size and (np.minimum.reduce(assignment) < 0
                            or np.maximum.reduce(assignment) >= k):
        raise InvalidInput(
            "assignment must hold one integer in [0, k) per row of (n, d)"
            f" features for (k, d) centers: got assignment {assignment.dtype}"
            f" {assignment.shape}, features {features.shape}, centers"
            f" {centers.shape}")
    return features, assignment, centers


def update_step(features, assignment, centers, mode=FULL_BATCH, counts=None):
    """Recompute centers from an assignment; returns new centers.

    FULL_BATCH sets each assigned center to the mean of its members and
    leaves empty clusters in place. MINIBATCH_RUNNING applies the streaming
    per-point rule center += (x - center) / count with per-center counts;
    pass the same counts (k integers in a list or a writeable array, updated
    in place) across batches to continue a stream.
    """
    features, assignment, centers = _checked(features, assignment, centers)
    new_centers = centers.copy()
    k = len(new_centers)
    if mode == FULL_BATCH:
        for c in range(k):
            members = features[assignment == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
    elif mode == MINIBATCH_RUNNING:
        n = ([0] * k if counts is None
             else _array("counts", counts, "k", kind="i", k=k).tolist())
        if counts is not None and not (isinstance(counts, list) or isinstance(
                counts, np.ndarray) and counts.flags.writeable):
            raise InvalidInput("counts must be a list or a writeable array,"
                               f" got a read-only {type(counts).__name__}")
        # one point at a time, as three ufuncs into one reused row: the same
        # arithmetic as c += (x - c) / n without a temporary per point. The
        # count goes in as a float, exact below 2**53, and out by position,
        # so no call converts an int or parses a keyword
        rows = list(new_centers)
        step = np.empty(new_centers.shape[1:], dtype=np.float64)
        for x, c in zip(list(features), assignment.tolist()):
            n[c] += 1
            row = rows[c]
            np.subtract(x, row, step)
            np.divide(step, float(n[c]), step)
            np.add(row, step, row)
        if counts is not None:
            counts[:] = n
    else:
        raise InvalidInput(f"unknown update mode {mode!r}")
    return new_centers


def kmeans_objective(features, assignment, centers):
    """Mean squared distance of each point to its assigned center; the
    mean needs at least one point."""
    features, assignment, centers = _checked(features, assignment, centers)
    if not len(features):
        raise InvalidInput(f"no points to score: features {features.shape},"
                           f" centers {centers.shape}")
    diff = features - centers[assignment]
    return float(np.mean(np.sum(diff * diff, axis=1)))


def run_minibatch_kmeans(stream, k, init="first_k", seed=0,
                         mode=MINIBATCH_RUNNING):
    """Alternate assign/update over a stream of feature batches.

    init is "first_k" (centers = first k rows of the first batch) or
    "seeded_random" (k distinct rows of the first batch drawn with the given
    seed). Returns the final centers and a per-batch objective trace, each
    trace entry evaluated on that batch with the just-updated centers.
    """
    k = _integer("k", k, 2)
    seed = _integer("seed", seed, 0)
    if init not in ("first_k", "seeded_random"):
        raise InvalidInput(f"unknown init {init!r}")
    batches = iter(stream)
    try:
        first = next(batches)
    except StopIteration:
        raise InvalidInput("stream yielded no batches") from None
    first = _array("first batch", first, "n d")
    if k > first.shape[0]:
        raise InvalidInput(f"first batch smaller than k for {init} init")
    if init == "first_k":
        centers = first[:k].copy()
    else:
        rng = np.random.default_rng(seed)
        idx = rng.choice(first.shape[0], size=k, replace=False)
        centers = first[idx].copy()

    counts = np.zeros(k, dtype=np.int64)
    trace = []

    def one_batch(batch):
        nonlocal centers
        labels = assign_step(batch, centers)
        centers = update_step(batch, labels, centers, mode=mode, counts=counts)
        trace.append(kmeans_objective(batch, labels, centers))

    one_batch(first)
    for batch in batches:  # assign_step's rule converts it
        one_batch(batch)
    return centers, trace
