"""Instance representation, metrics, and solution primitives shared by all algorithms."""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

CAP_TOL = 1e-9
# Instance computes the rows of a distance block in batches of as many rows
# as fit in ONE_CENTER_FLOATS floats, at least one
ONE_CENTER_FLOATS = 1 << 14


class InputError(ValueError):
    """Caller handed us something that violates an operation's precondition."""


class ContractViolation(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad user input."""


class InfeasibleInstance(Exception):
    """No feasible clustering exists for the requested parameters."""


@dataclass
class ClusteringSolution:
    """Opened centers plus a total assignment of every point to one of them."""

    centers: tuple[int, ...]
    assign: dict[int, int]

    def clusters(self) -> dict[int, list[int]]:
        """Members per center, only for centers that serve at least one point."""
        out: dict[int, list[int]] = {c: [] for c in self.centers}
        for j, i in self.assign.items():
            out[i].append(j)
        return {c: sorted(members) for c, members in out.items() if members}


def _check_params(k: int, alpha: float) -> None:
    try:
        operator.index(k)
    except TypeError:
        raise InputError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise InputError("k must be >= 1")
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")


def _id_array(ids, n: int) -> np.ndarray:
    """n int64 point ids from an integer array, or from a sequence converted as int() would."""
    if isinstance(ids, np.ndarray):
        if ids.size and not (
            ids.dtype.kind == "i" or (ids.dtype.kind == "u" and ids.max() < 1 << 63)
        ):
            raise InputError(f"point ids must be 64-bit integers, got dtype {ids.dtype}")
        out = ids.astype(np.int64)
    else:
        try:
            out = np.array(ids, dtype=np.int64)
        except OverflowError:
            wide = next(i for i in ids if not -(1 << 63) <= i < 1 << 63)
            raise InputError(f"point id {wide} does not fit in a signed 64-bit integer") from None
    if out.shape != (n,):
        raise InputError("coords and ids must have equal length")
    return out


def _norm(diff: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis.

    Every distance of an Instance goes through this one formula, so a pair's
    distance has the same bits whichever method computes it.
    """
    return np.sqrt((diff * diff).sum(axis=-1))


class Instance:
    """A capped k-center instance: the facility set is exactly the point set.

    The points are rows of arrays: an n x d float array of coordinates (d = 0
    for graph metrics), dense color ids in [0, len(color_labels)), and
    distinct 64-bit ids, 0..n-1 by default.  The instance keeps its own
    read-only copies, so all of its data is safe for concurrent reads.  The
    metric is Euclidean on coords unless an explicit all-pairs matrix is
    supplied (used by graph-metric instances, e.g. hardness gadgets).
    """

    def __init__(
        self,
        coords: np.ndarray | Sequence[Sequence[float]],
        colors: np.ndarray | Sequence[int],
        k: int,
        alpha: float,
        ids: np.ndarray | Sequence[int] | None = None,
        color_labels: Sequence[str] | None = None,
        dist_matrix: np.ndarray | None = None,
    ):
        try:
            coords = np.array(coords, dtype=float)
        except ValueError as exc:  # ragged rows, or a value that is not a number
            raise InputError(f"all points must share one dimensionality ({exc})") from None
        if coords.shape[:1] == (0,):
            raise InputError("instance needs at least one point")
        if coords.ndim != 2:
            raise InputError("all points must share one dimensionality (coords must be n x d)")
        n = coords.shape[0]
        _check_params(k, alpha)
        colors = np.asarray(colors)
        if colors.shape != (n,):
            raise InputError("coords and colors must have equal length")
        if colors.dtype.kind not in "iu":
            raise InputError(f"color ids must be integers, got dtype {colors.dtype}")
        if colors.min() < 0:
            raise InputError("color ids must be non-negative")
        if color_labels is None:
            color_labels = [str(c) for c in range(int(colors.max()) + 1)]
        if len(color_labels) <= colors.max():
            raise InputError("color label table smaller than color id range")
        self._ids = _id_array(np.arange(n) if ids is None else ids, n)
        self._id_order = np.argsort(self._ids)
        self._id_sorted = self._ids[self._id_order]
        if (self._id_sorted[1:] == self._id_sorted[:-1]).any():
            raise InputError("duplicate point ids")
        if not np.isfinite(coords).all():
            raise InputError("coordinates must be finite")

        self.k = k
        self.alpha = alpha
        self.color_labels = tuple(color_labels)
        self._coords = coords
        self._colors = colors.astype(int)
        for arr in (self._ids, self._id_order, self._id_sorted, self._coords, self._colors):
            arr.flags.writeable = False
        if dist_matrix is not None:
            dist_matrix = np.array(dist_matrix, dtype=float)
            dist_matrix.flags.writeable = False
            if dist_matrix.shape != (n, n):
                raise InputError("distance matrix shape mismatch")
            if not np.isfinite(dist_matrix).all():
                raise InputError("distance matrix must be finite")
            if not np.array_equal(dist_matrix, dist_matrix.T):
                raise InputError("distance matrix must be symmetric")
            if dist_matrix.diagonal().any():
                raise InputError("distance matrix must have a zero diagonal")
        self._dist = dist_matrix
        self._row_cache: dict[int, np.ndarray] = {}
        # (positions, their stacked rows) of the last dist_rows call
        self._block: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self._ids.size

    @property
    def n_colors(self) -> int:
        return len(self.color_labels)

    def ids(self) -> list[int]:
        return self._ids.tolist()

    def pos(self, point_id: int) -> int:
        """Position of the point `point_id`; InputError for an id that names no point."""
        at = int(self._id_sorted.searchsorted(point_id))
        if at < self._id_sorted.size and self._id_sorted.item(at) == point_id:
            return self._id_order.item(at)
        raise InputError(f"point id {point_id} names no point")

    def positions(self, point_ids) -> np.ndarray:
        """Position of each of `point_ids`, -1 for an id that names no point."""
        point_ids = np.asarray(point_ids, dtype=np.int64)
        at = self._id_order.take(np.searchsorted(self._id_sorted, point_ids), mode="clip")
        return np.where(self._ids[at] == point_ids, at, -1)

    def id_at(self, pos: int) -> int:
        return self._ids.item(pos)

    def ids_at(self, pos) -> np.ndarray:
        """Ids of the points at the positions `pos`."""
        return self._ids[pos]

    def colors(self) -> np.ndarray:
        return self._colors

    def coords(self) -> np.ndarray:
        return self._coords

    def _between(self, rows: Sequence[int], cols: Sequence[int] | slice) -> np.ndarray:
        """Distances from the points at positions `rows` to those at `cols` (an index or slice).

        The one reader of an explicit matrix.  Coordinate rows come in batches
        of as many rows as fit in ONE_CENTER_FLOATS floats of differences, so
        the whole difference is never held, each distance with `_norm`'s bits.
        """
        if self._dist is not None:
            return self._dist[rows][:, cols]
        sub = self._coords[cols]
        size = max(ONE_CENTER_FLOATS // max(sub.size, 1), 1)
        out = np.empty((len(rows), sub.shape[0]))
        for lo in range(0, len(rows), size):
            out[lo : lo + size] = _norm(self._coords[rows[lo : lo + size]][:, None, :] - sub)
        return out

    def dist_row(self, pos: int) -> np.ndarray:
        """Distances from the point at `pos` to every point, by position, read-only."""
        row = self._row_cache.get(pos)
        if row is None:
            row = self._between([pos], slice(None))[0]
            row.flags.writeable = False
            self._row_cache[pos] = row
        return row

    def dist_rows(self, pos: np.ndarray) -> np.ndarray:
        """The distance rows of the points at positions `pos`, stacked, read-only.

        The last block is kept, so a radius ladder over one facility set
        stacks its rows once.
        """
        block = self._block
        if block is None or not np.array_equal(block[0], pos):
            rows = np.stack([self.dist_row(p) for p in pos.tolist()])
            rows.flags.writeable = False
            block = self._block = (np.array(pos), rows)
        return block[1]

    def dist_paired(self, pos: np.ndarray) -> np.ndarray:
        """Distance from the point at each position j to the point at position pos[j]."""
        if self._dist is not None:
            return self._dist[np.arange(self.n), pos]
        return _norm(self._coords - self._coords[pos])

    def dist_block(self, pos: Sequence[int]) -> np.ndarray:
        """Distances among the points at positions `pos`, without the full matrix."""
        return self._between(pos, pos)

    def one_center(self, pos: Sequence[int]) -> int:
        """Index in `pos` of the point whose largest distance to the others is least.

        The answer of `dist_block(pos).max(axis=1).argmin()`, first of ties,
        without the |pos| x |pos| block when that block is large.  Its rows
        are computed in batches of as many rows as fit in ONE_CENTER_FLOATS
        floats, with dist_block's bits.  A row gives its point's eccentricity
        exactly and bounds every other point's from below (by the distance
        between the two).  The search ends once every point without a row is
        bounded above the best eccentricity found, so none of them can tie
        it.  Each batch after the first takes the open points with the lowest
        bounds, plus the farthest point of each row of the previous batch,
        whose own row tends to raise the bounds most.
        """
        pos = np.asarray(pos, dtype=np.int64)
        if not pos.size:
            raise InputError("one_center needs at least one position")
        size = max(ONE_CENTER_FLOATS // max(pos.size * self._coords.shape[1], 1), 1)
        ecc = np.full(pos.size, np.inf)  # inf until the point's row is computed
        bound = np.zeros(pos.size)
        batch = np.arange(min(size, pos.size))
        while True:
            rows = self._between(pos[batch], pos)
            ecc[batch] = rows.max(axis=1)
            np.maximum(bound, rows.max(axis=0), out=bound)
            open_ = np.flatnonzero(np.isinf(ecc) & (bound <= ecc.min()))
            if not open_.size:
                return int(ecc.argmin())
            lowest = open_[np.argsort(bound[open_], kind="stable")[:size]]
            far = rows.argmax(axis=1)
            batch = np.union1d(lowest, far[np.isinf(ecc[far])])

    def pairwise(self) -> np.ndarray:
        """Full distance matrix by position, read-only; computed at each call, never kept."""
        out = self._between(np.arange(self.n), slice(None))
        out.flags.writeable = False
        return out

    def with_params(self, k: int | None = None, alpha: float | None = None) -> "Instance":
        """Same points and metric under different k / alpha; self when neither changes.

        A changed instance is a shallow copy: it shares the read-only arrays
        and the distance rows already cached, so nothing is validated again.
        """
        if (k is None or k == self.k) and (alpha is None or alpha == self.alpha):
            return self
        out = copy.copy(self)
        out.k = self.k if k is None else k
        out.alpha = self.alpha if alpha is None else alpha
        _check_params(out.k, out.alpha)
        return out


def make_instance(
    coords: np.ndarray | Sequence[Sequence[float]],
    colors: Iterable,
    k: int,
    alpha: float,
    ids: np.ndarray | Sequence[int] | None = None,
) -> Instance:
    """Build an Instance from an n x d coordinate array, densely re-indexing arbitrary color labels.

    Labels get dense ids in order of first appearance; the labels themselves
    are kept in the instance's side table for reporting.
    """
    raw_colors = list(colors)
    index = {label: c for c, label in enumerate(dict.fromkeys(raw_colors))}
    dense = np.fromiter(map(index.__getitem__, raw_colors), dtype=np.int64, count=len(raw_colors))
    return Instance(coords, dense, k, alpha, ids=ids, color_labels=[str(c) for c in index])


def ceil_inv_alpha(alpha: float) -> int:
    """ceil(1/alpha) with a guard against float dust (1/(1/3) = 3.0000...04)."""
    return int(math.ceil(1.0 / alpha - CAP_TOL))


def center_positions(inst: Instance, sol: ClusteringSolution) -> np.ndarray:
    """Each point's assigned center position, indexed by point position.

    Raises ContractViolation for the first point, by position, that has no
    assignment or is assigned to a center outside `sol.centers`.
    """
    count = len(sol.assign)
    clients = inst.positions(np.fromiter(sol.assign.keys(), dtype=np.int64, count=count))
    centers = inst.positions(np.fromiter(sol.assign.values(), dtype=np.int64, count=count))
    # one extra slot for position -1: it takes the clients that name no
    # point, and it is never an opened center
    cpos = np.full(inst.n + 1, -1)
    cpos[clients] = centers
    cpos = cpos[:-1]
    opened = np.zeros(inst.n + 1, dtype=bool)
    opened[inst.positions(sol.centers)] = True
    opened[-1] = False
    served = opened[cpos]
    if not served.all():
        j = inst.id_at(int(np.argmin(served)))
        if j not in sol.assign:
            raise ContractViolation(f"point {j} has no assignment")
        raise ContractViolation(f"point {j} assigned to unopened center {sol.assign[j]}")
    return cpos


def solution_cost(inst: Instance, sol: ClusteringSolution) -> float:
    """Maximum distance from any point to its assigned center."""
    return float(inst.dist_paired(center_positions(inst, sol)).max())


def color_counts(inst: Instance, cpos: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Member counts by color of each cluster of the assignment `cpos`.

    `centers` are ascending positions that include every position in
    `cpos`; the counts have one row per center, in that order.
    """
    nc = inst.n_colors
    cluster = np.searchsorted(centers, cpos)
    return np.bincount(cluster * nc + inst.colors(), minlength=centers.size * nc).reshape(-1, nc)


def cluster_color_peaks(inst: Instance, sol: ClusteringSolution) -> tuple[np.ndarray, np.ndarray]:
    """Size and largest single-color count of each served cluster, by center position."""
    cpos = center_positions(inst, sol)
    counts = color_counts(inst, cpos, np.unique(cpos))
    return counts.sum(axis=1), counts.max(axis=1)


def check_capped(inst: Instance, sol: ClusteringSolution, alpha: float | None = None) -> bool:
    """True iff every cluster has every color count <= alpha * cluster size.

    Integer counts are compared against the real-valued bound with a small
    tolerance so float alphas like 0.1 behave as intended.
    """
    if alpha is None:
        alpha = inst.alpha
    sizes, peaks = cluster_color_peaks(inst, sol)
    return bool((peaks <= alpha * sizes + CAP_TOL).all())


def sorted_pairs(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, dist, radii): every position pair a < b and its distance, stably
    sorted by distance, and the radii `candidate_radii` returns, as an array."""
    a, b = np.triu_indices(inst.n, k=1)
    dist = inst.dist_block(np.arange(inst.n))[a, b]
    order = np.argsort(dist, kind="stable")
    a, b, dist = a[order], b[order], dist[order]
    keep = np.ones(dist.size, dtype=bool)
    keep[1:] = dist[1:] != dist[:-1]
    radii = dist[keep]
    if radii.size == 0 or radii[0] > 0.0:
        radii = np.concatenate(([0.0], radii))  # 0 is always a candidate
    return a, b, dist, radii


def candidate_radii(inst: Instance) -> list[float]:
    """All distinct pairwise distances in increasing order, with 0 always included."""
    return sorted_pairs(inst)[3].tolist()


def min_positive_distance(inst: Instance) -> float:
    """`candidate_radii`'s first positive radius (inf if none), with no pair sorted.

    Row batches of about ONE_CENTER_FLOATS distances, each row from its own
    position on: both orders of a pair have the same bits.
    """
    size = max(ONE_CENTER_FLOATS // inst.n, 1)
    best = np.inf
    for lo in range(0, inst.n, size):
        rows = inst._between(np.arange(lo, min(lo + size, inst.n)), slice(lo, None))
        best = min(best, rows.min(initial=np.inf, where=rows > 0.0))
    return float(best)


def nearest_positions(
    inst: Instance, centers: np.ndarray, clients: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each client's nearest center position and its distance to it.

    `centers` are positions in ascending order, so ties go to the lowest
    position; `clients` are positions, every point by default.  The distances
    have the bits of `dist_paired`.
    """
    rows = np.stack([inst.dist_row(c) for c in centers.tolist()])
    if clients is not None:
        rows = rows[:, clients]
    choice = rows.argmin(axis=0)  # argmin takes the first of ties
    return centers[choice], rows[choice, np.arange(rows.shape[1])]


def solution_at(
    inst: Instance, centers: np.ndarray, cpos: np.ndarray, clients: np.ndarray | None = None
) -> ClusteringSolution:
    """The solution opening the points at positions `centers`, client j served by cpos[j].

    `clients` are the positions that `cpos` assigns, every point by default.
    """
    client_ids = inst.ids() if clients is None else inst.ids_at(clients).tolist()
    return ClusteringSolution(
        tuple(sorted(inst.ids_at(centers).tolist())),
        dict(zip(client_ids, inst.ids_at(cpos).tolist())),
    )
