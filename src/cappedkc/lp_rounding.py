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


def reroute_fractional(
    inst: Instance, frac: FractionalSolution, fmap: FacilityMap
) -> FractionalSolution:
    """Merge each facility's fractional column onto its opened representative.

    The result opens exactly fmap.opened (y = 1 there) and keeps every
    client's total assignment mass unchanged.  Merged pairs keep the order in
    which they first appear in frac, and their masses add up in pair order.
    """
    theta = np.full(inst.n, -1)  # by position: the opened position, -1 off the map
    for i, t in fmap.theta.items():
        theta[inst.pos(i)] = inst.pos(t)
    target = theta[frac.facility]
    outside = target < 0
    if outside.any():
        i = inst.id_at(frac.facility[np.argmax(outside)])
        raise ContractViolation(f"facility {i} carries mass but is outside the map")
    keys, first, merged = np.unique(
        target * inst.n + frac.client, return_index=True, return_inverse=True
    )
    mass = np.bincount(merged, weights=frac.x, minlength=keys.size)
    order = np.argsort(first)
    y = np.zeros(inst.n)
    y[[inst.pos(i) for i in fmap.opened]] = 1.0
    return FractionalSolution(keys[order] // inst.n, keys[order] % inst.n, mass[order], y)


def validate_rerouted(inst: Instance, lam: float, frac: FractionalSolution, tol: float = SEP_TOL):
    """Check the rerouted point against the radius-3*lam polytope families.

    Verifies x in [0, 1], x <= y, support radius, unit coverage, color caps,
    and the opening budget.  The minimum-load family is deliberately not enforced:
    merging columns onto a maximal separated subset can leave an opened
    facility with less than ceil(1/alpha) mass, and nothing downstream
    relies on it.
    """
    fac, client, x = frac.facility, frac.client, frac.x
    bad = np.flatnonzero((x < -tol) | (x > 1.0 + tol))
    if bad.size:
        p = bad[0]
        raise ContractViolation(
            f"x[{inst.id_at(fac[p])},{inst.id_at(client[p])}]={x[p]} outside [0,1]"
        )
    bad = np.flatnonzero(x > frac.y[fac] + tol)
    if bad.size:
        p = bad[0]
        raise ContractViolation(
            f"x[{inst.id_at(fac[p])},{inst.id_at(client[p])}]={x[p]} exceeds "
            f"the opening y={frac.y[fac[p]]}"
        )
    for i in np.unique(fac).tolist():
        mine = client[fac == i]
        far = mine[inst.dist_row(i)[mine] > 3.0 * lam * (1 + 1e-12) + tol]
        if far.size:
            raise ContractViolation(
                f"pair ({inst.id_at(i)},{inst.id_at(far[0])}) farther than 3*lambda"
            )
    cover = np.bincount(client, weights=x, minlength=inst.n)
    bad = np.flatnonzero(np.abs(cover - 1.0) > tol)
    if bad.size:
        raise ContractViolation(f"client {inst.id_at(bad[0])} coverage {cover[bad[0]]} != 1")
    nc = inst.n_colors
    mass = np.bincount(
        fac * nc + inst.colors()[client], weights=x, minlength=inst.n * nc
    ).reshape(inst.n, nc)
    bad = np.argwhere(mass > inst.alpha * mass.sum(axis=1, keepdims=True) + tol)
    if bad.size:
        i, c = bad[0]
        raise ContractViolation(f"color cap broken at facility {inst.id_at(i)}, color {c}")
    if np.count_nonzero(frac.y) > inst.k:
        raise ContractViolation("more than k facilities opened")


def fair_k_center(
    inst: Instance,
    lam: float,
    restricted: Sequence[int] | None = None,
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

    order = None if restricted is None else sorted(restricted, key=inst.pos)
    fmap = select_separated_facilities(inst, lam, order)
    if len(fmap.opened) > inst.k:
        return None

    merged = reroute_fractional(inst, frac, fmap)
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
