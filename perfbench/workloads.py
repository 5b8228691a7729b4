"""The three workloads: seeded inputs, run configuration and output checks.

lp_scale and half_route each start from one fixed balanced instance
(make_balanced_instance with seed 0 and seed 5). The workload seed picks a
random rigid motion (rotation plus translation) of that instance: the input
coordinates differ for every seed while all pairwise distances, and so the
work evaluate() does, stay the same up to rounding. Drawing a new balanced
instance per seed moves the work far more than any bound the benchmark could
hold: at n=1500, evaluate() took 17.6 s on seed 0 and 93.9 s on seed 1 of the
lp_scale family, and at n=100 from 13.6 s to 33.2 s over seeds 0-5 of the
half_route family, since the number of radii each route tries before it
accepts depends on the draw.

lp_planted draws a new planted instance per seed (see planted.py); its jitter
is small enough that the LP systems keep their shape.

The sizes (n=1000, 96 and 80) keep one evaluate() call at about 5 s, so that
a run reports the median of several calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize  # noqa: F401  (loaded here so the first timed HiGHS call does not import it)

import planted
from cappedkc import (
    CAP_TOL,
    Instance,
    RunConfig,
    fair_k_center,
    make_balanced_instance,
    make_instance,
)

WORKLOADS = {
    "lp_scale": "LP route at n=1000 with HiGHS; caps do not bind; the pairwise matrix sets peak RSS",
    "lp_planted": "LP route on a planted cap-binding instance; every rung is solved, by the dense simplex",
    "half_route": "half-cap caplet route at n=80; no LP layer runs",
}


@dataclass
class Inputs:
    """One workload's generated inputs: what evaluate() receives, plus check data."""

    inst: Instance
    cfg: RunConfig
    r_planted: float | None = None


def _rigid_motion(inst: Instance, seed: int, k: int, alpha: float) -> Instance:
    rng = np.random.default_rng(seed)
    dim = inst.coords().shape[1]
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    coords = inst.coords() @ q + rng.uniform(-10.0, 10.0, size=dim)
    return make_instance(coords, inst.colors().tolist(), k=k, alpha=alpha)


def make_inputs(name: str, seed: int) -> Inputs:
    if name == "lp_scale":
        base = make_balanced_instance(50, 20, dim=10, k=25, alpha=0.1, seed=0)
        inst = _rigid_motion(base, seed, k=25, alpha=0.1)
        return Inputs(inst, RunConfig(k=25, alpha=0.1, algorithm="lp"))
    if name == "half_route":
        base = make_balanced_instance(4, 20, dim=3, k=4, alpha=0.5, seed=5)
        inst = _rigid_motion(base, seed, k=4, alpha=0.5)
        return Inputs(inst, RunConfig(k=4, alpha=0.5, algorithm="half"))
    if name == "lp_planted":
        inst, r_planted = planted.planted_instance(seed)
        return Inputs(inst, RunConfig(k=planted.K, alpha=planted.ALPHA, algorithm="lp"), r_planted)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Measured:
    """Cost and cap figures of one assignment, recomputed from coordinates."""

    cost: float
    delta: int
    worst_cap_ratio: float


def measure(inst: Instance, assignment: dict[int, int], alpha: float) -> Measured:
    """Cost, additive cap violation, and the worst color count over alpha * |cluster|."""
    clients = np.array([inst.pos(j) for j in assignment])
    centers = np.array([inst.pos(i) for i in assignment.values()])
    xy = inst.coords()
    cost = float(np.linalg.norm(xy[clients] - xy[centers], axis=1).max())
    colors = inst.colors()[clients]
    delta, worst = 0, 0.0
    for c in np.unique(centers):
        counts = np.bincount(colors[centers == c])
        size = int(counts.sum())
        top = int(counts.max())
        delta = max(delta, top - int(math.floor(size * alpha + CAP_TOL)))
        worst = max(worst, top / (alpha * size))
    return Measured(cost, delta, worst)


def allowed_delta(alpha: float) -> int:
    """The LP route's bound: 1 when 1/alpha is an integer, else 2."""
    inv = 1.0 / alpha
    return 1 if abs(inv - round(inv)) <= 1e-9 else 2


def check_assignment(inst: Instance, k: int, centers: list[int], assignment: dict[int, int]) -> list[str]:
    problems = []
    if set(assignment) != set(inst.ids()):
        problems.append("not every point is assigned exactly once")
    if not set(assignment.values()) <= set(centers):
        problems.append("a point is assigned to a center that is not opened")
    if len(set(centers)) > k:
        problems.append(f"{len(set(centers))} centers opened, more than k={k}")
    return problems


def check_report(inputs: Inputs, report) -> tuple[list[str], Measured | None]:
    """Problems with one evaluate() report; empty when the output is correct."""
    if report.status != "ok":
        return [f"status {report.status!r}"], None
    cfg = inputs.cfg
    problems = check_assignment(inputs.inst, cfg.k, report.centers, report.assignment)
    if problems:
        return problems, None
    got = measure(inputs.inst, report.assignment, cfg.alpha)
    if abs(got.cost - report.cost) > 1e-9 * max(1.0, got.cost):
        problems.append(f"reported cost {report.cost} but the assignment costs {got.cost}")
    if got.delta != report.delta:
        problems.append(f"reported delta {report.delta} but the assignment has {got.delta}")
    if cfg.algorithm == "lp" and got.delta > allowed_delta(cfg.alpha):
        problems.append(f"cap violated by {got.delta} > {allowed_delta(cfg.alpha)}")
    if cfg.algorithm == "half" and got.worst_cap_ratio > 1.0 + CAP_TOL:
        problems.append("a color holds a majority of some cluster (check_capped fails)")
    return problems, got


def check_planted_guarantee(inputs: Inputs) -> tuple[list[str], dict]:
    """Full-facility fair_k_center at r_planted: cost <= 3 r_planted, delta <= 1."""
    inst, r = inputs.inst, inputs.r_planted
    sol = fair_k_center(inst, r)
    if sol is None:
        return [f"fair_k_center rejected r_planted={r}, a radius the planted partition meets"], {}
    problems = check_assignment(inst, inst.k, list(sol.centers), sol.assign)
    if problems:
        return problems, {}
    got = measure(inst, sol.assign, inst.alpha)
    record = {
        "r_planted": r,
        "cost": got.cost,
        "cost_bound": 3.0 * r,
        "delta": got.delta,
        "centers": list(sol.centers),
    }
    if got.cost > 3.0 * r * (1.0 + 1e-9):
        problems.append(f"cost {got.cost} exceeds 3 * r_planted = {3.0 * r}")
    if got.delta > allowed_delta(inst.alpha):
        problems.append(f"cap violated by {got.delta} > {allowed_delta(inst.alpha)}")
    return problems, record
