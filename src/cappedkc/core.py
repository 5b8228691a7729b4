"""Instance representation, metrics, and solution primitives shared by all algorithms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

CAP_TOL = 1e-9


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


@dataclass(frozen=True)
class RadiusGrid:
    """Sorted candidate values for the optimal radius."""

    values: tuple[float, ...]

    def __post_init__(self):
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise InputError("radius grid must be strictly increasing")

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


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


class Instance:
    """A capped k-center instance: the facility set is exactly the point set.

    Points are immutable after construction; all derived data (coordinate
    array, distance cache) is safe for concurrent reads.  The metric is
    Euclidean on coords unless an explicit all-pairs matrix is supplied
    (used by graph-metric instances, e.g. hardness gadgets).
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
        if k < 1:
            raise InputError("k must be >= 1")
        if not (0.0 < alpha <= 1.0):
            raise InputError("alpha must lie in (0, 1]")
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

        self.points = tuple(points)
        self.k = k
        self.alpha = alpha
        self.color_labels = tuple(color_labels)
        self._pos = {p.id: idx for idx, p in enumerate(points)}
        self._coords = np.array([p.coords for p in points], dtype=float)
        if not np.isfinite(self._coords).all():
            raise InputError("coordinates must be finite")
        self._colors = np.array([p.color for p in points], dtype=int)
        if dist_matrix is not None:
            dist_matrix = np.asarray(dist_matrix, dtype=float)
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

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def n_colors(self) -> int:
        return len(self.color_labels)

    def ids(self) -> list[int]:
        return [p.id for p in self.points]

    def pos(self, point_id: int) -> int:
        return self._pos[point_id]

    def id_at(self, pos: int) -> int:
        return self.points[pos].id

    def color_at(self, pos: int) -> int:
        return int(self._colors[pos])

    def colors(self) -> np.ndarray:
        return self._colors

    def coords(self) -> np.ndarray:
        return self._coords

    def dist_pos(self, a: int, b: int) -> float:
        """Distance between the points at positions a and b."""
        if self._dist is not None:
            return float(self._dist[a, b])
        return float(np.linalg.norm(self._coords[a] - self._coords[b]))

    def dist(self, a_id: int, b_id: int) -> float:
        return self.dist_pos(self._pos[a_id], self._pos[b_id])

    def dist_row(self, pos: int) -> np.ndarray:
        """Distances from the point at `pos` to every point, by position."""
        if self._dist is not None:
            return self._dist[pos]
        row = self._row_cache.get(pos)
        if row is None:
            row = np.linalg.norm(self._coords - self._coords[pos], axis=1)
            self._row_cache[pos] = row
        return row

    def pairwise(self) -> np.ndarray:
        """Full distance matrix by position (cached)."""
        if self._dist is None:
            diff = self._coords[:, None, :] - self._coords[None, :, :]
            self._dist = np.sqrt((diff * diff).sum(axis=2))
        return self._dist

    def with_params(self, k: int | None = None, alpha: float | None = None) -> "Instance":
        """Same points and metric under different k / alpha."""
        return Instance(
            self.points,
            self.k if k is None else k,
            self.alpha if alpha is None else alpha,
            self.color_labels,
            self._dist,
        )


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
    if ids is None:
        ids = range(len(coords))
    points = [Point(int(i), c, col) for i, c, col in zip(ids, coords, dense)]
    return Instance(points, k, alpha, labels)


def ceil_inv_alpha(alpha: float) -> int:
    """ceil(1/alpha) with a guard against float dust (1/(1/3) = 3.0000...04)."""
    return int(math.ceil(1.0 / alpha - CAP_TOL))


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points of equal dimension."""
    if len(p.coords) != len(q.coords):
        raise InputError(f"dimension mismatch: {len(p.coords)} vs {len(q.coords)}")
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p.coords, q.coords)))


def solution_cost(inst: Instance, sol: ClusteringSolution) -> float:
    """Maximum distance from any point to its assigned center."""
    centers = set(sol.centers)
    worst = 0.0
    for p in inst.points:
        i = sol.assign.get(p.id)
        if i is None:
            raise ContractViolation(f"point {p.id} has no assignment")
        if i not in centers:
            raise ContractViolation(f"point {p.id} assigned to unopened center {i}")
        worst = max(worst, inst.dist(p.id, i))
    return worst


def check_capped(inst: Instance, sol: ClusteringSolution, alpha: float | None = None) -> bool:
    """True iff every cluster has every color count <= alpha * cluster size.

    Integer counts are compared against the real-valued bound with a small
    tolerance so float alphas like 0.1 behave as intended.
    """
    if alpha is None:
        alpha = inst.alpha
    for members in sol.clusters().values():
        counts: dict[int, int] = {}
        for j in members:
            c = inst.color_at(inst.pos(j))
            counts[c] = counts.get(c, 0) + 1
        bound = alpha * len(members) + CAP_TOL
        if any(cnt > bound for cnt in counts.values()):
            return False
    return True


def candidate_radii(inst: Instance) -> RadiusGrid:
    """All distinct pairwise distances, with 0 always included."""
    dm = inst.pairwise()
    iu = np.triu_indices(inst.n, k=1)
    vals = np.unique(dm[iu]) if iu[0].size else np.array([])
    if vals.size == 0 or vals[0] > 0.0:
        vals = np.concatenate(([0.0], vals))
    return RadiusGrid(tuple(float(v) for v in vals))


def nearest_assignment(inst: Instance, centers: Sequence[int]) -> ClusteringSolution:
    """Assign every point to its nearest center, ties to the lowest-position center."""
    if not centers:
        raise InputError("need at least one center")
    order = sorted(centers, key=inst.pos)
    cols = np.stack([inst.dist_row(inst.pos(c)) for c in order], axis=1)
    choice = cols.argmin(axis=1)  # argmin takes the first of ties
    assign = {inst.id_at(j): order[choice[j]] for j in range(inst.n)}
    return ClusteringSolution(tuple(sorted(centers)), assign)
