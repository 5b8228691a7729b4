"""Radius-feasibility LP: build the capped-assignment polytope and find a point in it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .core import InputError, Instance, RadiusGrid, ceil_inv_alpha

ROW_TOL = 1e-7
RADIUS_SLACK = 1e-12  # pairs with d <= lambda*(1+slack) get a variable


class SolverError(RuntimeError):
    """HiGHS failed in a way that is not an infeasibility verdict."""


@dataclass
class Block:
    """One constraint family: local sparse rows, a shared relation, and rhs."""

    family: str
    relation: str  # "<=", ">=" or "=="
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    n_rows: int
    rhs: np.ndarray

    def matrix(self, n_vars: int) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.data, (self.rows, self.cols)), shape=(self.n_rows, n_vars)
        )


@dataclass
class LinearSystem:
    """The polytope at a fixed radius: y per facility, x per in-radius pair.

    Column order is all y variables (facility position order) followed by all
    x variables ordered by (facility, client) position; bounds are [0,1] for
    every variable.  Pairs farther than the radius simply have no column.
    """

    lam: float
    facility_ids: list[int]
    pair_ids: list[tuple[int, int]]
    blocks: list[Block]
    n_vars: int
    uncovered_clients: list[int] = field(default_factory=list)

    def y_col(self, idx: int) -> int:
        return idx

    def x_col(self, idx: int) -> int:
        return len(self.facility_ids) + idx

    def dump_lp(self) -> str:
        """Human-readable LP text (debug aid)."""
        names = [f"y_{i}" for i in self.facility_ids] + [
            f"x_{i}_{j}" for i, j in self.pair_ids
        ]
        out = ["\\ feasibility system at radius %.12g" % self.lam, "Minimize", " obj: 0", "Subject To"]
        r = 0
        for blk in self.blocks:
            mat = blk.matrix(self.n_vars).tocoo()
            terms: dict[int, list[str]] = {i: [] for i in range(blk.n_rows)}
            for i, j, v in zip(mat.row, mat.col, mat.data):
                terms[i].append(f"{'+' if v >= 0 else '-'} {abs(v):.12g} {names[j]}")
            relation = "=" if blk.relation == "==" else blk.relation
            for i in range(blk.n_rows):
                out.append(
                    f" {blk.family}_{r + i}: {' '.join(terms[i]) or '0 ' + names[0]} "
                    f"{relation} {blk.rhs[i]:.12g}"
                )
            r += blk.n_rows
        out.append("Bounds")
        out.extend(f" 0 <= {name} <= 1" for name in names)
        out.append("End")
        return "\n".join(out)


@dataclass(frozen=True)
class FractionalSolution:
    """A point of the polytope: sparse assignment and opening values."""

    x: dict[tuple[int, int], float]
    y: dict[int, float]


def build_polytope(
    inst: Instance, lam: float, restricted_facilities: Sequence[int] | None = None
) -> LinearSystem:
    """Assemble the radius-lam system, optionally restricting facilities to a coreset.

    Families: per-client coverage held at exactly one unit, openings
    dominating assignments, per-facility color caps (only for colors with an
    in-radius client at that facility; the others hold for any x >= 0), the
    minimum-load rows ceil(1/alpha) * y_i <= sum_j x_ij, and the opening
    budget.  The unit bounds on every variable are implicit.
    """
    if lam < 0:
        raise InputError("lambda must be non-negative")
    if restricted_facilities is None:
        fac_pos = np.arange(inst.n)
    else:
        fac_pos = np.array(sorted(inst.pos(i) for i in restricted_facilities), dtype=int)
        if not fac_pos.size:
            raise InputError("restricted facility set must be non-empty")
    n, nf = inst.n, len(fac_pos)
    radius = lam * (1.0 + RADIUS_SLACK)

    # pairs sorted by (facility, client) position: pf is the facility's
    # local index (its y column), pj the client position
    clients = [np.flatnonzero(inst.dist_row(fi) <= radius) for fi in fac_pos.tolist()]
    deg = np.array([c.size for c in clients], dtype=int)
    pj = np.concatenate(clients)
    pf = np.repeat(np.arange(nf), deg)
    n_pairs = pj.size
    xcols = nf + np.arange(n_pairs)
    ones = np.ones(n_pairs)

    # per-facility color caps: sum_{j in color c} x_ij <= alpha * sum_j x_ij,
    # one row per (facility, color) pair with an in-radius client of color c
    colors = inst.colors()
    keys = np.unique(pf * inst.n_colors + colors[pj])
    cap_fac, cap_color = np.divmod(keys, inst.n_colors)
    row_len = deg[cap_fac]
    cap_rows = np.repeat(np.arange(keys.size), row_len)
    # pair index: the facility's first pair plus the offset within the row
    first = np.cumsum(deg) - deg
    row_start = np.cumsum(row_len) - row_len
    idx = np.arange(cap_rows.size) + np.repeat(first[cap_fac] - row_start, row_len)
    own = colors[pj[idx]] == cap_color[cap_rows]
    cap_coeff = np.where(own, 1.0 - inst.alpha, -inst.alpha)

    load = ceil_inv_alpha(inst.alpha)
    blocks = [
        # coverage: each client receives exactly one unit of assignment
        Block("cover", "==", pj, xcols, ones, n, np.ones(n)),
        # x_ij <= y_i
        Block(
            "open",
            "<=",
            np.tile(np.arange(n_pairs), 2),
            np.concatenate([xcols, pf]),
            np.concatenate([ones, -ones]),
            n_pairs,
            np.zeros(n_pairs),
        ),
        Block("colorcap", "<=", cap_rows, xcols[idx], cap_coeff, keys.size, np.zeros(keys.size)),
        # open facilities must carry at least ceil(1/alpha) clients of mass
        Block(
            "minload",
            ">=",
            np.concatenate([np.arange(nf), pf]),
            np.concatenate([np.arange(nf), xcols]),
            np.concatenate([np.full(nf, -float(load)), ones]),
            nf,
            np.zeros(nf),
        ),
        # opening budget
        Block(
            "budget",
            "<=",
            np.zeros(nf, int),
            np.arange(nf),
            np.ones(nf),
            1,
            np.array([float(inst.k)]),
        ),
    ]

    covered = np.zeros(n, dtype=bool)
    covered[pj] = True
    ids = np.array(inst.ids())
    return LinearSystem(
        lam=lam,
        facility_ids=ids[fac_pos].tolist(),
        pair_ids=list(zip(ids[fac_pos[pf]].tolist(), ids[pj].tolist())),
        blocks=blocks,
        n_vars=nf + n_pairs,
        uncovered_clients=ids[~covered].tolist(),
    )


def validate_point(sys: LinearSystem, vec: np.ndarray, tol: float = ROW_TOL) -> list[str]:
    """Re-check every row and bound against a raw variable vector, solver-free."""
    bad: list[str] = []
    if (vec < -tol).any() or (vec > 1.0 + tol).any():
        bad.append("variable bound violated")
    for blk in sys.blocks:
        if not blk.n_rows:
            continue
        gap = blk.matrix(sys.n_vars) @ vec - blk.rhs
        if blk.relation == ">=":
            gap = -gap
        elif blk.relation == "==":
            gap = np.abs(gap)
        worst = gap.max()
        if worst > tol:
            bad.append(f"{blk.family}: violation {worst:.3e}")
    return bad


def _solve_highs(sys: LinearSystem) -> np.ndarray | None:
    from scipy.optimize import linprog

    ub_mats, ub_rhs, eq_mats, eq_rhs = [], [], [], []
    for blk in sys.blocks:
        m = blk.matrix(sys.n_vars)
        if blk.relation == "==":
            eq_mats.append(m)
            eq_rhs.append(blk.rhs)
        elif blk.relation == "<=":
            ub_mats.append(m)
            ub_rhs.append(blk.rhs)
        else:
            ub_mats.append(-m)
            ub_rhs.append(-blk.rhs)
    res = linprog(
        c=np.zeros(sys.n_vars),
        A_ub=sp.vstack(ub_mats, format="csr"),
        b_ub=np.concatenate(ub_rhs),
        A_eq=sp.vstack(eq_mats, format="csr"),
        b_eq=np.concatenate(eq_rhs),
        bounds=(0, 1),
        method="highs",
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise SolverError(f"linprog status {res.status}: {res.message}")
    return np.asarray(res.x)


def check_feasible(sys: LinearSystem) -> FractionalSolution | None:
    """A point satisfying every row within 1e-7, or None when the polytope is empty.

    A client with no facility in radius empties the polytope without a solve;
    otherwise SciPy's HiGHS decides, and its point is re-checked against every
    row.  Numerical failures raise SolverError, they are never reported as
    infeasible.
    """
    if sys.uncovered_clients:
        return None  # some client has no facility in radius: trivially empty
    vec = _solve_highs(sys)
    if vec is None:
        return None
    bad = validate_point(sys, vec)
    if bad:
        raise SolverError("HiGHS returned an invalid point: " + "; ".join(bad))
    nf = len(sys.facility_ids)
    y = {i: float(v) for i, v in zip(sys.facility_ids, vec[:nf]) if v > 1e-12}
    x = {p: float(v) for p, v in zip(sys.pair_ids, vec[nf:]) if v > 1e-12}
    return FractionalSolution(x=x, y=y)


def min_feasible_radius(
    inst: Instance,
    grid: RadiusGrid,
    restricted: Sequence[int] | None = None,
    strategy: str = "scan",
) -> tuple[float, FractionalSolution] | None:
    """Smallest grid radius whose polytope is non-empty, with a point in it.

    "scan" walks the grid in ascending order (cheap infeasible solves first);
    "bisect" exploits feasibility monotonicity in the radius.
    """
    vals = list(grid)
    if strategy == "scan":
        for lam in vals:
            frac = check_feasible(build_polytope(inst, lam, restricted))
            if frac is not None:
                return lam, frac
        return None
    if strategy == "bisect":
        lo, hi = 0, len(vals) - 1
        best: tuple[float, FractionalSolution] | None = None
        frac = check_feasible(build_polytope(inst, vals[hi], restricted))
        if frac is None:
            return None
        best = (vals[hi], frac)
        while lo <= hi:
            mid = (lo + hi) // 2
            frac = check_feasible(build_polytope(inst, vals[mid], restricted))
            if frac is not None:
                best = (vals[mid], frac)
                hi = mid - 1
            else:
                lo = mid + 1
        return best
    raise InputError(f"unknown strategy {strategy!r}")
