"""Instance representation, metrics, and solution primitives shared by all algorithms."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

CAP_TOL = 1e-9
# Instance.one_center computes the rows of a distance block in batches of as
# many rows as fit in ONE_CENTER_FLOATS floats, at least one
ONE_CENTER_FLOATS = 1 << 14


class InputError(ValueError):
    """Caller handed us something that violates an operation's precondition."""


class ContractViolation(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad user input."""


class InfeasibleInstance(Exception):
    """No feasible clustering exists for the requested parameters."""


@dataclass(frozen=True)
class Point:
    """A client (equivalently, candidate facility) with a dense color id."""

    id: int
    coords: tuple[float, ...]
    color: int


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
    if k < 1:
        raise InputError("k must be >= 1")
    if not (0.0 < alpha <= 1.0):
        raise InputError("alpha must lie in (0, 1]")


def _norm(diff: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis.

    Every distance of an Instance goes through this one formula, so a pair's
    distance has the same bits whichever method computes it.
    """
    return np.sqrt((diff * diff).sum(axis=-1))


class Instance:
    """A capped k-center instance: the facility set is exactly the point set.

    Points are immutable after construction; all derived data (coordinate
    and color arrays, distance cache) is read-only and safe for concurrent
    reads.  The metric is Euclidean on coords unless an explicit all-pairs
    matrix is supplied (used by graph-metric instances, e.g. hardness
    gadgets); the instance keeps its own copy of it.
    """

    def __init__(
        self,
        points: Sequence[Point],
        k: int,
        alpha: float,
        color_labels: Sequence[str] | None = None,
        dist_matrix: np.ndarray | None = None,
    ):
        if len(points) < 1:
            raise InputError("instance needs at least one point")
        _check_params(k, alpha)
        dims = {len(p.coords) for p in points}
        if len(dims) > 1:
            raise InputError("all points must share one dimensionality")
        n_colors = max(p.color for p in points) + 1
        seen = {p.color for p in points}
        if min(seen) < 0:
            raise InputError("color ids must be non-negative")
        if color_labels is None:
            color_labels = [str(c) for c in range(n_colors)]
        if len(color_labels) < n_colors:
            raise InputError("color label table smaller than color id range")
        ids = [p.id for p in points]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate point ids")
        wide = [i for i in ids if not -(1 << 63) <= i < 1 << 63]
        if wide:
            raise InputError(f"point id {wide[0]} does not fit in a signed 64-bit integer")

        self.points = tuple(points)
        self.k = k
        self.alpha = alpha
        self.color_labels = tuple(color_labels)
        self._pos = {p.id: idx for idx, p in enumerate(points)}
        self._ids = np.array(ids, dtype=np.int64)
        self._id_order = np.argsort(self._ids)
        self._id_sorted = self._ids[self._id_order]
        self._coords = np.array([p.coords for p in points], dtype=float)
        if not np.isfinite(self._coords).all():
            raise InputError("coordinates must be finite")
        self._colors = np.array([p.color for p in points], dtype=int)
        self._coords.flags.writeable = self._colors.flags.writeable = False
        if dist_matrix is not None:
            dist_matrix = np.array(dist_matrix, dtype=float)
            dist_matrix.flags.writeable = False
            if dist_matrix.shape != (len(points), len(points)):
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
        return len(self.points)

    @property
    def n_colors(self) -> int:
        return len(self.color_labels)

    def ids(self) -> list[int]:
        return self._ids.tolist()

    def pos(self, point_id: int) -> int:
        return self._pos[point_id]

    def positions(self, point_ids) -> np.ndarray:
        """Position of each of `point_ids`, -1 for an id that names no point."""
        point_ids = np.asarray(point_ids, dtype=np.int64)
        at = self._id_order.take(np.searchsorted(self._id_sorted, point_ids), mode="clip")
        return np.where(self._ids[at] == point_ids, at, -1)

    def require_positions(self, point_ids) -> np.ndarray:
        """Position of each of `point_ids`; InputError for an id that names no point."""
        given = np.asarray(point_ids)
        if given.size and not (
            given.dtype.kind == "i" or (given.dtype.kind == "u" and given.max() < 1 << 63)
        ):
            raise InputError(f"point ids must be 64-bit integers, got dtype {given.dtype}")
        pos = self.positions(given)
        if (pos < 0).any():
            raise InputError(f"point id {given.flat[np.argmin(pos)]} names no point")
        return pos

    def id_at(self, pos: int) -> int:
        return self.points[pos].id

    def ids_at(self, pos) -> np.ndarray:
        """Ids of the points at the positions `pos`."""
        return self._ids[pos]

    def colors(self) -> np.ndarray:
        return self._colors

    def coords(self) -> np.ndarray:
        return self._coords

    def dist_row(self, pos: int) -> np.ndarray:
        """Distances from the point at `pos` to every point, by position, read-only."""
        if self._dist is not None:
            return self._dist[pos]
        row = self._row_cache.get(pos)
        if row is None:
            row = _norm(self._coords - self._coords[pos])
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
        if self._dist is not None:
            return self._dist[np.ix_(pos, pos)]
        sub = self._coords[pos]
        return _norm(sub[:, None, :] - sub[None, :, :])

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
        sub = None if self._dist is not None else self._coords[pos]
        width = pos.size * (1 if sub is None else sub.shape[1])  # floats per row
        size = max(ONE_CENTER_FLOATS // max(width, 1), 1)
        ecc = np.full(pos.size, np.inf)  # inf until the point's row is computed
        bound = np.zeros(pos.size)
        batch = np.arange(min(size, pos.size))
        while True:
            if sub is None:
                rows = self._dist[np.ix_(pos[batch], pos)]
            else:
                rows = _norm(sub[batch][:, None, :] - sub[None, :, :])
            ecc[batch] = rows.max(axis=1)
            np.maximum(bound, rows.max(axis=0), out=bound)
            open_ = np.flatnonzero(np.isinf(ecc) & (bound <= ecc.min()))
            if not open_.size:
                return int(ecc.argmin())
            lowest = open_[np.argsort(bound[open_], kind="stable")[:size]]
            far = rows.argmax(axis=1)
            batch = np.union1d(lowest, far[np.isinf(ecc[far])])

    def pairwise(self) -> np.ndarray:
        """Full distance matrix by position (cached, read-only)."""
        if self._dist is None:
            self._dist = self.dist_block(np.arange(self.n))
            self._dist.flags.writeable = False
        return self._dist

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
    coords: Iterable[Sequence[float]],
    colors: Iterable,
    k: int,
    alpha: float,
    ids: Iterable[int] | None = None,
) -> Instance:
    """Build an Instance from raw rows, densely re-indexing arbitrary color labels.

    The original labels are kept in the instance's side table for reporting.
    """
    coords = [tuple(float(v) for v in c) for c in coords]
    raw_colors = list(colors)
    if len(raw_colors) != len(coords):
        raise InputError("coords and colors must have equal length")
    label_to_id: dict = {}
    labels: list[str] = []
    dense = []
    for label in raw_colors:
        if label not in label_to_id:
            label_to_id[label] = len(labels)
            labels.append(str(label))
        dense.append(label_to_id[label])
    ids = range(len(coords)) if ids is None else list(ids)
    if len(ids) != len(coords):
        raise InputError("coords and ids must have equal length")
    points = [Point(int(i), c, col) for i, c, col in zip(ids, coords, dense)]
    return Instance(points, k, alpha, labels)


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


def candidate_radii(inst: Instance) -> list[float]:
    """All distinct pairwise distances in increasing order, with 0 always included."""
    dm = inst.pairwise()
    iu = np.triu_indices(inst.n, k=1)
    vals = np.unique(dm[iu]) if iu[0].size else np.array([])
    if vals.size == 0 or vals[0] > 0.0:
        vals = np.concatenate(([0.0], vals))
    return vals.tolist()


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
