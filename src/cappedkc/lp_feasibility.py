"""Radius-feasibility LP: build the capped-assignment polytope and find a point in it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .core import InputError, Instance, ceil_inv_alpha

ROW_TOL = 1e-7
RADIUS_SLACK = 1e-12  # pairs with d <= lambda*(1+slack) get a variable
IPM_MIN_COLUMNS = 9_000  # systems this wide go to the interior point solver


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


@dataclass
class RadiusPairs:
    """The (facility, client) pairs within radius lam, by point position.

    `facility_pos` holds the facility set in ascending position.  The pairs
    are sorted by (facility, client) position: `pair_facility` and
    `pair_client` are their positions, `pair_color` the client's color.
    """

    lam: float
    alpha: float
    n_points: int
    facility_pos: np.ndarray
    pair_facility: np.ndarray
    pair_client: np.ndarray
    pair_color: np.ndarray


@dataclass
class LinearSystem(RadiusPairs):
    """The polytope at a fixed radius: y and a load L per facility, x per in-radius pair.

    Column order is all y variables (facility position order), then all x
    variables in pair order, then one load column L_i per facility in the y
    order.  `lower`/`upper` hold the per-column bounds: [0, 1] for y and x,
    [0, inf) for L.  Pairs farther than the radius simply have no column.
    Columns are described by point positions: `facility_pos` for the y (and
    L) columns, and the pair arrays for the x columns.
    """

    blocks: list[Block]
    lower: np.ndarray
    upper: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.lower.size


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """A point of the polytope, by point position.

    `facility`, `client` and `x` list the support pairs (facility position,
    client position, assignment mass) in column order; `y` holds one opening
    per point, 0 off the facility set.
    """

    facility: np.ndarray
    client: np.ndarray
    x: np.ndarray
    y: np.ndarray


def radius_pairs(
    inst: Instance, lam: float, restricted_facilities: Sequence[int] | None = None
) -> RadiusPairs:
    """The in-radius pairs of the radius-lam polytope, without its constraint rows.

    `restricted_facilities` are point ids; the facility set is their
    positions, or every point.  A pair is in radius when its distance is at
    most lam * (1 + RADIUS_SLACK).  The facility rows come from
    `Instance.dist_rows`, so a ladder over one set stacks them once.
    """
    if lam < 0:
        raise InputError("lambda must be non-negative")
    if restricted_facilities is None:
        fac_pos = np.arange(inst.n)
    else:
        fac_pos = np.unique(inst.require_positions(restricted_facilities))
        if not fac_pos.size:
            raise InputError("restricted facility set must be non-empty")
    rows = inst.dist_rows(fac_pos)
    # row-major: the pairs come out in (facility, client) order
    pf, pj = np.divmod(np.flatnonzero(rows <= lam * (1.0 + RADIUS_SLACK)), inst.n)
    return RadiusPairs(lam, inst.alpha, inst.n, fac_pos, fac_pos[pf], pj, inst.colors()[pj])


def build_polytope(
    inst: Instance, lam: float, restricted_facilities: Sequence[int] | None = None
) -> LinearSystem:
    """Assemble the radius-lam system, optionally restricting facilities to a coreset.

    The pairs come from `radius_pairs`, the rows from `polytope_on`.
    """
    return polytope_on(inst, radius_pairs(inst, lam, restricted_facilities))


def polytope_on(inst: Instance, pairs: RadiusPairs) -> LinearSystem:
    """The system on the given in-radius pairs of `inst`.

    The facility set is `pairs.facility_pos`, which is also the order in
    which `fair_k_center` scans them for separation.

    Families: per-client coverage held at exactly one unit (`cover`),
    openings dominating assignments (`open`), the load definition
    L_i = sum_j x_ij (`load`), per-facility color caps
    sum_{j in c} x_ij <= alpha * L_i (`colorcap`, only for colors with an
    in-radius client at that facility; the others hold for any x >= 0), the
    minimum load L_i >= ceil(1/alpha) * y_i (`minload`), and the opening
    budget.  Each x column appears in exactly one cap row, so the system has
    5 * pairs + cap rows + 4 * facilities nonzeros.  Its projection onto
    (x, y) is the polytope with L_i substituted out.  Column bounds are in
    `lower`/`upper`.
    """
    fac_pos, pj, pc = pairs.facility_pos, pairs.pair_client, pairs.pair_color
    n, nf = inst.n, len(fac_pos)
    # pf is the pair facility's local index (its y column)
    pf = np.searchsorted(fac_pos, pairs.pair_facility)
    n_pairs = pj.size
    fac = np.arange(nf)
    xcols = nf + np.arange(n_pairs)
    lcols = nf + n_pairs + fac
    ones = np.ones(n_pairs)

    # per-facility color caps: sum_{j in color c} x_ij - alpha * L_i <= 0,
    # one row per (facility, color) pair with an in-radius client of color c
    keys, cap_rows = np.unique(pf * inst.n_colors + pc, return_inverse=True)
    n_cap = keys.size
    cap_fac = keys // inst.n_colors

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
        # L_i - sum_j x_ij = 0
        Block(
            "load",
            "==",
            np.concatenate([fac, pf]),
            np.concatenate([lcols, xcols]),
            np.concatenate([np.ones(nf), -ones]),
            nf,
            np.zeros(nf),
        ),
        Block(
            "colorcap",
            "<=",
            np.concatenate([cap_rows, np.arange(n_cap)]),
            np.concatenate([xcols, lcols[cap_fac]]),
            np.concatenate([ones, np.full(n_cap, -inst.alpha)]),
            n_cap,
            np.zeros(n_cap),
        ),
        # open facilities must carry at least ceil(1/alpha) clients of mass
        Block(
            "minload",
            ">=",
            np.tile(fac, 2),
            np.concatenate([lcols, fac]),
            np.concatenate([np.ones(nf), np.full(nf, -float(load))]),
            nf,
            np.zeros(nf),
        ),
        # opening budget
        Block("budget", "<=", np.zeros(nf, int), fac, np.ones(nf), 1, np.array([float(inst.k)])),
    ]

    return LinearSystem(
        lam=pairs.lam,
        alpha=pairs.alpha,
        n_points=n,
        facility_pos=fac_pos,
        pair_facility=pairs.pair_facility,
        pair_client=pj,
        pair_color=pc,
        blocks=blocks,
        lower=np.zeros(nf + n_pairs + nf),
        upper=np.concatenate([np.ones(nf + n_pairs), np.full(nf, np.inf)]),
    )


def validate_point(sys: LinearSystem, vec: np.ndarray) -> list[str]:
    """Re-check every row and column bound against a raw variable vector, within ROW_TOL.

    The color caps are also re-checked on x alone, per facility and color
    sum_{j in c} x_ij <= alpha * sum_j x_ij, so the cap guarantee never rests
    on the load columns.
    """
    bad: list[str] = []
    if (vec < sys.lower - ROW_TOL).any() or (vec > sys.upper + ROW_TOL).any():
        bad.append("variable bound violated")
    for blk in sys.blocks:
        gap = np.bincount(blk.rows, weights=blk.data * vec[blk.cols], minlength=blk.n_rows) - blk.rhs
        if blk.relation == ">=":
            gap = -gap
        elif blk.relation == "==":
            gap = np.abs(gap)
        worst = gap.max(initial=0.0)
        if worst > ROW_TOL:
            bad.append(f"{blk.family}: violation {worst:.3e}")
    nf, n_pairs = sys.facility_pos.size, sys.pair_client.size
    if n_pairs:
        x = vec[nf : nf + n_pairs]
        n_colors = int(sys.pair_color.max()) + 1
        mass = np.bincount(
            sys.pair_facility * n_colors + sys.pair_color,
            weights=x,
            minlength=sys.n_points * n_colors,
        ).reshape(sys.n_points, n_colors)
        worst = (mass - sys.alpha * mass.sum(axis=1, keepdims=True)).max()
        if worst > ROW_TOL:
            bad.append(f"color cap on x: violation {worst:.3e}")
    return bad


def _stack(blocks: list[Block], n_vars: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """The blocks' rows as one matrix and rhs, in block order, with ">=" rows negated.

    One sparse construction per call: building each block's matrix and
    stacking them costs more than the solve on small systems.
    """
    sign = [-1.0 if blk.relation == ">=" else 1.0 for blk in blocks]
    offset = np.cumsum([0] + [blk.n_rows for blk in blocks])
    mat = sp.csr_matrix(
        (
            np.concatenate([s * blk.data for s, blk in zip(sign, blocks)]),
            (
                np.concatenate([blk.rows + o for blk, o in zip(blocks, offset)]),
                np.concatenate([blk.cols for blk in blocks]),
            ),
        ),
        shape=(offset[-1], n_vars),
    )
    return mat, np.concatenate([s * blk.rhs for s, blk in zip(sign, blocks)])


def _solve_highs(sys: LinearSystem) -> np.ndarray | None:
    """HiGHS on the system: a basic point, None when it reports infeasible.

    Systems with at least IPM_MIN_COLUMNS columns go to the interior point
    solver, smaller ones to the dual simplex.  On these zero-objective
    systems the dual simplex has a heavy tail from about 9,000 columns up
    (0.23 s to 6.2 s at 9,000-12,000 columns, 23 s at 27,000), while the
    interior point method takes 15-27 iterations and its time grows
    steadily with size; below the constant neither wins.  Its crossover
    still returns a vertex, so the rounding sees a basic point either way.
    Any other status raises SolverError.
    """
    from scipy.optimize import linprog

    a_eq, b_eq = _stack([blk for blk in sys.blocks if blk.relation == "=="], sys.n_vars)
    a_ub, b_ub = _stack([blk for blk in sys.blocks if blk.relation != "=="], sys.n_vars)
    res = linprog(
        c=np.zeros(sys.n_vars),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([sys.lower, sys.upper]),
        method="highs-ipm" if sys.n_vars >= IPM_MIN_COLUMNS else "highs",
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise SolverError(f"linprog status {res.status}: {res.message}")
    return np.asarray(res.x)


def passes_prechecks(pairs: RadiusPairs) -> bool:
    """False when one of two solve-free tests shows the pairs' polytope empty.

    They read the pairs alone, so a `RadiusPairs` is checked before any
    constraint row is built (a `LinearSystem` is one too).

    The first: a client with no facility in radius.  The second: a client
    whose in-radius facilities each see fewer than ceil(1/alpha) colors
    among their in-radius clients.  Such a facility cannot open: y_i > 0
    forces L_i >= ceil(1/alpha) * y_i > 0 (`minload`), each of its K colors
    carries at most alpha * L_i (`colorcap`), so K * alpha >= 1, which
    K < ceil(1/alpha) rules out (the float guard of `ceil_inv_alpha` only
    weakens the test).  With y_i = 0 the `open` rows hold all its x_ij at 0,
    so a client reaching no other facility cannot be covered.
    """
    if not np.bincount(pairs.pair_client, minlength=pairs.n_points).all():
        return False
    n_colors = int(pairs.pair_color.max()) + 1
    seen = np.unique(pairs.pair_facility * n_colors + pairs.pair_color)
    n_seen = np.bincount(seen // n_colors, minlength=pairs.n_points)
    servable = n_seen[pairs.pair_facility] >= ceil_inv_alpha(pairs.alpha)
    return bool(np.bincount(pairs.pair_client[servable], minlength=pairs.n_points).all())


def check_feasible(sys: LinearSystem) -> FractionalSolution | None:
    """A point satisfying every row within 1e-7, or None when the polytope is empty.

    SciPy's HiGHS decides, and its point is re-checked against every row.
    Numerical failures raise SolverError, they are never reported as
    infeasible.  The solve-free `passes_prechecks` is the caller's to run
    first; `fair_k_center` runs it before it builds any row.
    """
    vec = _solve_highs(sys)
    if vec is None:
        return None
    bad = validate_point(sys, vec)
    if bad:
        raise SolverError("HiGHS returned an invalid point: " + "; ".join(bad))
    nf = sys.facility_pos.size
    x = vec[nf : nf + sys.pair_client.size]
    support = x > 1e-12
    y = np.zeros(sys.n_points)
    y[sys.facility_pos] = vec[:nf]
    return FractionalSolution(sys.pair_facility[support], sys.pair_client[support], x[support], y)

