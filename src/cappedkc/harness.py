"""Grid-search driver, quality metrics, and report plumbing."""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    CAP_TOL,
    ClusteringSolution,
    InfeasibleInstance,
    InputError,
    Instance,
    candidate_radii,
    center_positions,
    color_counts,
    make_instance,
    nearest_positions,
    solution_at,
)
from .greedy import farthest_first, lloyd_round, random_centers
from .halfcap import non_dominant_k_center
from .lp_rounding import fair_k_center, one_center_stop

RANDOM_RERUNS = 10


@dataclass(frozen=True)
class RunConfig:
    """One experiment cell: algorithm plus its parameters."""

    k: int
    alpha: float
    epsilon: float = 0.1
    m: int = 2
    algorithm: str = "lp"  # greedy | random | lp | half
    seed: int = 0

    def __post_init__(self):
        for name in ("k", "m", "seed"):
            given = getattr(self, name)
            try:
                # numpy integers become ints, so the report serializes
                object.__setattr__(self, name, operator.index(given))
            except TypeError:
                raise InputError(f"{name} must be an integer, got {given!r}") from None
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InputError("epsilon must be positive and finite")
        if 1.0 + self.epsilon == 1.0:
            # the radius ladder multiplies by 1 + epsilon and would never grow
            raise InputError(f"epsilon {self.epsilon!r} is too small to grow the radius ladder")
        if self.m < 1:
            raise InputError("m must be >= 1")
        if self.algorithm not in ("greedy", "random", "lp", "half"):
            raise InputError(f"unknown algorithm {self.algorithm!r}")


@dataclass
class CappedInstanceReport:
    """Metrics of one run in the overview-table layout, the one field list of its JSON and CSV.

    An infeasible run leaves the fields after `delta_random` at their defaults.
    """

    algorithm: str
    params: dict
    status: str
    delta_greedy: int
    delta_random: int
    cost: float | None = None
    cost_vs_greedy: float | None = None
    cost_vs_random: float | None = None
    delta: int | None = None
    centers: list[int] = field(default_factory=list)
    assignment: dict[int, int] = field(default_factory=dict)
    histograms: dict[int, dict[str, int]] = field(default_factory=dict)
    wall_ms: float = 0.0


def max_additive_violation(inst: Instance, sol: ClusteringSolution, alpha: float) -> int:
    """Worst excess of any cluster's color count over the floored cap floor(|C|*alpha)."""
    cpos = center_positions(inst, sol)
    return _violation(inst, cpos, np.unique(cpos), alpha)


def _violation(inst: Instance, cpos: np.ndarray, centers: np.ndarray, alpha: float) -> int:
    """`max_additive_violation` of the assignment `cpos` onto the ascending positions `centers`."""
    counts = color_counts(inst, cpos, centers)
    allowed = np.floor(counts.sum(axis=1) * alpha + CAP_TOL).astype(np.int64)
    return int((counts.max(axis=1) - allowed).max(initial=0))


def _grid(start: float, stop: float, epsilon: float) -> list[float]:
    vals = []
    v = start
    while v < stop * (1 - 1e-12):
        vals.append(v)
        v *= 1.0 + epsilon
    vals.append(stop)
    return vals


def lambda_grid(inst: Instance, lam_greedy: float, lam_anchor: float, epsilon: float) -> list[float]:
    """Geometric radius ladder from half the greedy cost up to twice the anchor radius."""
    hi = 2.0 * lam_anchor
    if hi <= 0.0:
        return [0.0]
    if lam_greedy > 0.0:
        return _grid(lam_greedy / 2.0, hi, epsilon)
    # degenerate greedy (enough centers for every distinct location): any
    # positive optimum is still a pairwise distance, so anchor the ladder there
    positive = [r for r in candidate_radii(inst) if r > 0.0]
    return [0.0] + (_grid(positive[0], hi, epsilon) if positive else [])


def faster_algorithm(inst: Instance, cfg: RunConfig) -> tuple[ClusteringSolution, float]:
    """Coreset-restricted grid search: round the first radius with a non-empty polytope.

    Returns the solution and the rung lambda where the output became fixed:
    every earlier rung was rejected by `fair_k_center`, and the cost is at
    most 3*lambda.

    The facility variables are restricted to m*k greedy centers and the
    radius ladder grows by (1+epsilon) factors, so few and small systems are
    solved before the first feasible radius.

    Two certificates stand in for solves.  A color with more than alpha*n
    points empties every rung's polytope (summing the cap rows gives
    |c| <= alpha*n at any of its points), so it raises InfeasibleInstance
    before the ladder.  And the ladder stops at the first rung where
    `one_center_stop` shows that the rounding can only give one cluster from
    there on.
    """
    if cfg.algorithm != "lp":
        raise InputError("faster_algorithm drives the lp route")
    work = inst.with_params(k=cfg.k, alpha=cfg.alpha)
    if np.bincount(work.colors()).max() > work.alpha * work.n + CAP_TOL:
        raise InfeasibleInstance(
            "no radius in the grid admits a capped assignment; "
            "alpha is below the largest color fraction"
        )
    lam_anchor = float(work.dist_row(0).max())
    lam_greedy = float(farthest_first(work, cfg.k)[1].max())
    coreset = work.ids_at(farthest_first(work, cfg.m * cfg.k)[0]).tolist()
    grid = lambda_grid(work, lam_greedy, lam_anchor, cfg.epsilon)

    for lam in grid:
        o = one_center_stop(work, coreset, lam, grid[-1])
        if o is not None:
            sol = ClusteringSolution((work.id_at(o),), dict.fromkeys(work.ids(), work.id_at(o)))
        else:
            sol = fair_k_center(work, lam, restricted=coreset)
        if sol is not None:
            return sol, lam
    raise InfeasibleInstance("no radius in the grid admits a capped assignment")


def make_balanced_instance(
    n_colors: int = 50,
    per_color: int = 50,
    dim: int = 10,
    k: int = 25,
    alpha: float = 0.1,
    seed: int = 0,
) -> Instance:
    """Synthetic benchmark: equal-size color groups with i.i.d. normal coordinates."""
    rng = np.random.default_rng(seed)
    n = n_colors * per_color
    coords = rng.standard_normal((n, dim))
    colors = [c for c in range(n_colors) for _ in range(per_color)]
    return make_instance(coords, colors, k=k, alpha=alpha)


def greedy_gold(inst: Instance) -> tuple[ClusteringSolution, float]:
    """The gold-standard baseline: greedy centers refined by one Lloyd round."""
    centers, cpos, dist = _gold(inst)
    return solution_at(inst, centers, cpos), float(dist.max())


def _gold(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`greedy_gold` on positions: the centers, each point's center and its distance."""
    centers, _ = farthest_first(inst, inst.k)
    return lloyd_round(inst, centers, *nearest_positions(inst, centers))


def _ratio(cost: float, base: float) -> float | None:
    if base <= 0.0:
        return 1.0 if cost <= 0.0 else None
    return cost / base


def _histograms(inst: Instance, cpos: np.ndarray, served: np.ndarray) -> dict[int, dict[str, int]]:
    """Color label counts per served center id; `served` are the ascending positions in `cpos`."""
    counts = color_counts(inst, cpos, served)
    out: dict[int, dict[str, int]] = {}
    for center, row in sorted(zip(inst.ids_at(served).tolist(), counts.tolist())):
        hist: dict[str, int] = {}
        for label, count in zip(inst.color_labels, row):
            if count:  # two raw labels can print alike, so add up
                hist[label] = hist.get(label, 0) + count
        out[center] = dict(sorted(hist.items()))
    return out


def evaluate(inst: Instance, cfg: RunConfig) -> CappedInstanceReport:
    """Run one algorithm against both baselines and collect the overview metrics.

    The random baseline is re-run over ten consecutive seeds and reports the
    averaged cost and (rounded) averaged violation; its representative
    centers/assignment come from the first seed.  Infeasibility comes back
    as a structured report, never an exception.
    """
    work = inst.with_params(k=cfg.k, alpha=cfg.alpha)
    params = asdict(cfg)
    del params["algorithm"]
    params.update(n=work.n, n_colors=work.n_colors)

    # the baselines stay in position arrays; only a reported one becomes a solution
    gold_centers, gold_cpos, gold_dist = _gold(work)
    gold_cost = float(gold_dist.max())
    delta_greedy = _violation(work, gold_cpos, gold_centers, cfg.alpha)

    rand = []  # (centers, cpos, dist) per seed
    for r in range(RANDOM_RERUNS):
        centers = random_centers(work, cfg.seed + r)
        rand.append((centers, *nearest_positions(work, centers)))
    rand_cost = float(np.mean([float(dist.max()) for _, _, dist in rand]))
    rand_deltas = [_violation(work, cpos, centers, cfg.alpha) for centers, cpos, _ in rand]
    delta_random = int(round(float(np.mean(rand_deltas))))

    t0 = time.perf_counter()
    try:
        if cfg.algorithm == "greedy":
            sol = solution_at(work, gold_centers, gold_cpos)
            cpos, cost = gold_cpos, gold_cost
        elif cfg.algorithm == "random":
            centers, cpos, _ = rand[0]
            sol = solution_at(work, centers, cpos)
            cost = rand_cost
        else:
            half = cfg.algorithm == "half"
            sol, _ = non_dominant_k_center(work) if half else faster_algorithm(work, cfg)
            cpos = center_positions(work, sol)
            cost = float(work.dist_paired(cpos).max())
    except InfeasibleInstance:
        sol = None
    wall_ms = (time.perf_counter() - t0) * 1000.0

    ok = {}
    if sol is not None:
        served = np.unique(cpos)
        # the random row reports the averaged violation, like its averaged cost
        delta = delta_random if cfg.algorithm == "random" else _violation(work, cpos, served, cfg.alpha)
        ok = dict(
            cost=cost,
            cost_vs_greedy=_ratio(cost, gold_cost),
            cost_vs_random=_ratio(cost, rand_cost),
            delta=delta,
            centers=list(sol.centers),
            assignment=dict(sorted(sol.assign.items())),
            histograms=_histograms(work, cpos, served),
        )
    status = "ok" if ok else "infeasible"
    return CappedInstanceReport(
        cfg.algorithm, params, status, delta_greedy, delta_random, wall_ms=wall_ms, **ok
    )


def report_to_dict(report: CappedInstanceReport, include_wall: bool = True) -> dict:
    """JSON-ready view of every report field, with a fixed key set across algorithms."""
    out = asdict(report)
    out["assignment"] = {str(j): i for j, i in report.assignment.items()}
    out["histograms"] = {str(c): h for c, h in report.histograms.items()}
    if not include_wall:
        del out["wall_ms"]
    return out


def report_to_json(report: CappedInstanceReport, include_wall: bool = True) -> str:
    return json.dumps(report_to_dict(report, include_wall), sort_keys=True, indent=2)


CSV_COLUMNS = [
    "dataset",
    "algorithm",
    "k",
    "alpha",
    "epsilon",
    "m",
    "cost",
    "cost_vs_greedy",
    "cost_vs_random",
    "delta",
    "delta_greedy",
    "delta_random",
]


def reports_to_csv(rows: list[tuple[str, CappedInstanceReport]]) -> str:
    """Overview-table CSV: one row per (dataset, run), its cells looked up by column name.

    Cells are quoted only where they need it (a comma in a dataset name, say),
    and None is an empty cell.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for dataset, r in rows:
        fields = {"dataset": dataset, **r.params, **vars(r)}
        cells = (fields[name] for name in CSV_COLUMNS)
        writer.writerow(f"{v:.6g}" if isinstance(v, float) else v for v in cells)
    return out.getvalue()
