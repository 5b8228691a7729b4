"""Seeded planted instance on which the color caps bind.

Four groups sit far apart. Each group is a W x H rectangle whose four corners
hold single-color blobs of PER_BLOB points, one color per corner, the same four
colors in every group. With alpha = 1/4 the planted partition (one cluster per
group) meets the cap exactly, so the discrete 1-center radius of the worst
group bounds the capped optimum from above. The unconstrained greedy solution
uses k = 8 centers, two per group, and so builds clusters of two colors that
break the cap.

The jitter is small and bounded, so every seed gives the same set of pairs
within each radius of the LP ladder: the LP systems the route solves have the
same shape for every seed, and the seed changes only coordinates.
"""

from __future__ import annotations

import numpy as np

from cappedkc import Instance, greedy_gold, make_instance, max_additive_violation

GROUPS = 4
PER_BLOB = 6
K = 8
ALPHA = 0.25
# The greedy cost is HEIGHT, so the LP ladder climbs 0.5 * HEIGHT * 1.1^i. WIDTH and
# the diagonal (1.124 and 1.504 times HEIGHT) sit mid-way between two rungs, so
# the jitter never moves a pair across a rung.
WIDTH, HEIGHT = 1.124, 1.0
SPACING = 10.0  # group centers are this far apart, far beyond any accepted radius
JITTER = 0.002  # half-side of the square each point is drawn from around its corner
CORNERS = ((0.0, 0.0), (WIDTH, 0.0), (WIDTH, HEIGHT), (0.0, HEIGHT))


def planted_instance(seed: int) -> tuple[Instance, float]:
    """The planted instance and its planted radius r_planted.

    r_planted is the largest discrete 1-center radius over the planted groups,
    an upper bound on the capped optimum. Raises if greedy clusters meet the
    cap, since then the workload would not bind.
    """
    rng = np.random.default_rng(seed)
    shifts = np.arange(GROUPS)[:, None, None, None] * np.array([SPACING, 0.0])
    corners = np.array(CORNERS)[None, :, None, :]
    pts = shifts + corners + rng.uniform(-JITTER, JITTER, size=(GROUPS, len(CORNERS), PER_BLOB, 2))
    colors = np.broadcast_to(np.arange(len(CORNERS))[:, None], (GROUPS, len(CORNERS), PER_BLOB))
    inst = make_instance(pts.reshape(-1, 2), colors.ravel().tolist(), k=K, alpha=ALPHA)

    r_planted = 0.0
    for group in pts.reshape(GROUPS, -1, 2):
        d = np.linalg.norm(group[:, None, :] - group[None, :, :], axis=2)
        r_planted = max(r_planted, float(d.max(axis=1).min()))

    gold, _ = greedy_gold(inst)
    delta_greedy = max_additive_violation(inst, gold, ALPHA)
    if delta_greedy <= 0:
        raise RuntimeError(f"planted instance does not bind: delta_greedy = {delta_greedy}")
    return inst, r_planted
