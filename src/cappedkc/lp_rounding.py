"""Round a fractional radius-lam point to an integral clustering within 3*lam."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ClusteringSolution, ContractViolation, InputError, Instance
from .flow import build_assignment_network, extract_assignment, max_flow_lower_bounds
from .lp_feasibility import FractionalSolution, build_polytope, check_feasible

SEP_TOL = 1e-7


@dataclass(frozen=True)
class FacilityMap:
    """Opened facilities (pairwise more than 2*lam apart) plus the merge map.

    theta sends every scanned facility to the first opened facility within
    2*lam of it; opened facilities map to themselves.
    """

    opened: tuple[int, ...]
    theta: dict[int, int]
    lam: float


def select_separated_facilities(
    inst: Instance, lam: float, scan_order: Sequence[int] | None = None
) -> FacilityMap:
    """Greedy maximal subset under the strict >2*lam separation predicate.

    Scanning order decides ties; the default is ascending point position.
    """
    if lam < 0:
        raise InputError("lambda must be non-negative")
    if scan_order is None:
        scan_order = [inst.id_at(p) for p in range(inst.n)]
    opened: list[int] = []
    opened_pos: list[int] = []
    theta: dict[int, int] = {}
    for i in scan_order:
        near = np.flatnonzero(inst.dist_row(inst.pos(i))[opened_pos] <= 2.0 * lam)
        if near.size:
            theta[i] = opened[near[0]]
        else:
            opened.append(i)
            opened_pos.append(inst.pos(i))
            theta[i] = i
    return FacilityMap(tuple(opened), theta, lam)


def reroute_fractional(frac: FractionalSolution, fmap: FacilityMap) -> FractionalSolution:
    """Merge each facility's fractional column onto its opened representative.

    The result opens exactly fmap.opened (y = 1 there) and keeps every
    client's total assignment mass unchanged.
    """
    x2: dict[tuple[int, int], float] = {}
    for (i, j), v in frac.x.items():
        tgt = fmap.theta.get(i)
        if tgt is None:
            raise ContractViolation(f"facility {i} carries mass but is outside the map")
        key = (tgt, j)
        x2[key] = x2.get(key, 0.0) + v
    y2 = {i: 1.0 for i in fmap.opened}
    return FractionalSolution(x=x2, y=y2)


def validate_rerouted(inst: Instance, lam: float, frac: FractionalSolution, tol: float = SEP_TOL):
    """Check the rerouted point against the radius-3*lam polytope families.

    Verifies support radius, unit coverage, x <= y, color caps, and the
    opening budget.  The minimum-load family is deliberately not enforced:
    merging columns onto a maximal separated subset can leave an opened
    facility with less than ceil(1/alpha) mass, and nothing downstream
    relies on it.
    """
    cover: dict[int, float] = {p.id: 0.0 for p in inst.points}
    per_fac: dict[int, dict[int, float]] = {}
    for (i, j), v in frac.x.items():
        if v < -tol or v > 1.0 + tol:
            raise ContractViolation(f"x[{i},{j}]={v} outside [0,1]")
        if inst.dist(i, j) > 3.0 * lam * (1 + 1e-12) + tol:
            raise ContractViolation(f"pair ({i},{j}) farther than 3*lambda")
        cover[j] += v
        per_fac.setdefault(i, {})
        c = inst.color_at(inst.pos(j))
        per_fac[i][c] = per_fac[i].get(c, 0.0) + v
    for j, total in cover.items():
        if abs(total - 1.0) > tol:
            raise ContractViolation(f"client {j} coverage {total} != 1")
    for i, by_color in per_fac.items():
        col_total = sum(by_color.values())
        for c, mass in by_color.items():
            if mass > inst.alpha * col_total + tol:
                raise ContractViolation(f"color cap broken at facility {i}, color {c}")
    if len(frac.y) > inst.k:
        raise ContractViolation("more than k facilities opened")


def fair_k_center(
    inst: Instance,
    lam: float,
    restricted: Sequence[int] | None = None,
    scan_order: str = "index",
    validate: bool = False,
) -> ClusteringSolution | None:
    """LP-guess-and-round at radius lam: None when the polytope is empty.

    On success every point lands within 3*lam of its center and each
    cluster's color counts exceed the cap by at most two clients (one when
    1/alpha is an integer).  A radius whose maximal separated facility set
    exceeds k is rejected the same way as an empty polytope so grid drivers
    simply advance.
    """
    frac = check_feasible(build_polytope(inst, lam, restricted))
    if frac is None:
        return None

    if restricted is None:
        facilities = [inst.id_at(p) for p in range(inst.n)]
    else:
        facilities = sorted(restricted, key=inst.pos)
    if scan_order == "index":
        order = facilities
    elif scan_order == "mass":
        order = sorted(facilities, key=lambda i: (-frac.y.get(i, 0.0), inst.pos(i)))
    else:
        raise InputError(f"unknown scan_order {scan_order!r}")

    fmap = select_separated_facilities(inst, lam, order)
    if len(fmap.opened) > inst.k:
        return None

    merged = reroute_fractional(frac, fmap)
    if validate:
        validate_rerouted(inst, lam, merged)

    net = build_assignment_network(inst, merged, fmap.opened)
    flow = max_flow_lower_bounds(net, inst.n)
    if flow is None:
        raise ContractViolation(
            "assignment network infeasible after a feasible relaxation; "
            "this indicates a rounding bug"
        )
    assign = extract_assignment(net, flow)
    centers = tuple(sorted(set(assign.values())))
    return ClusteringSolution(centers, assign)
