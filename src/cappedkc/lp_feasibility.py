"""Radius-feasibility LP: build the capped-assignment polytope and find a point in it."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .core import InputError, Instance, ceil_inv_alpha

ROW_TOL = 1e-7
RADIUS_SLACK = 1e-12  # pairs with d <= lambda*(1+slack) get a variable


class SolverError(RuntimeError):
    """HiGHS failed in a way that is not an infeasibility verdict."""


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
    """The polytope at a fixed radius over client classes.

    Clients with the same color and the same in-radius facility set form a
    class, numbered by its lowest client position; its weight w_C is its
    size.  Column order is all y variables (facility position order), then
    one x column X_iC per (facility, class) pair, sorted by (facility,
    class), then one load column L_i per facility in the y order.  Every
    column is at least 0; `upper` holds the upper bounds: 1 for y, w_C for
    X_iC, inf for L.  `pair_column` maps each in-radius pair to its x column,
    and `column_pair` each x column to its first pair, the one of its
    class's lowest client.  When every class is a single client, the x
    columns are the pairs, in pair order.

    The rows are the CSC matrix HiGHS reads, `row_lower <= a @ v <=
    row_upper`: first the `<=` families open, colorcap, minload and budget
    (lower bound -inf), then the equality families cover and load.
    `families` maps each family, in the order cover, open, load, colorcap,
    minload, budget, to its rows of `a`.
    """

    pair_column: np.ndarray
    column_pair: np.ndarray
    a: sp.csc_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    families: dict[str, slice]
    upper: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.upper.size


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """A point of the polytope, by point position.

    `facility`, `client` and `x` list the support pairs (facility position,
    client position, assignment mass) in pair order; `y` holds one opening
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

    `restricted_facilities` are point positions in any order, every point by
    default; an empty set, non-integer entries or a position outside [0, n)
    raise InputError.  A pair is in radius when its distance is at most
    lam * (1 + RADIUS_SLACK).  The facility rows come from
    `Instance.dist_rows`, so a ladder over one set stacks them once.
    """
    if lam < 0:
        raise InputError("lambda must be non-negative")
    if restricted_facilities is None:
        fac_pos = np.arange(inst.n)
    else:
        fac_pos = np.unique(restricted_facilities)
        if not fac_pos.size:
            raise InputError("restricted facility set must be non-empty")
        if fac_pos.dtype.kind not in "iu":
            raise InputError(f"facility positions must be integers, got dtype {fac_pos.dtype}")
        if fac_pos[0] < 0 or fac_pos[-1] >= inst.n:
            raise InputError(f"facility positions must lie in [0, {inst.n})")
        fac_pos = fac_pos.astype(np.int64)
    rows = inst.dist_rows(fac_pos)
    # row-major: the pairs come out in (facility, client) order
    pf, pj = np.divmod(np.flatnonzero(rows <= lam * (1.0 + RADIUS_SLACK)), inst.n)
    return RadiusPairs(lam, inst.alpha, inst.n, fac_pos, fac_pos[pf], pj, inst.colors()[pj])


def build_polytope(
    inst: Instance, lam: float, restricted_facilities: Sequence[int] | None = None
) -> LinearSystem:
    """Assemble the radius-lam system, optionally restricting facilities to a coreset.

    `restricted_facilities` are point positions, as in `radius_pairs`,
    which gives the pairs; the rows come from `polytope_on`.
    """
    return polytope_on(inst, radius_pairs(inst, lam, restricted_facilities))


def polytope_on(inst: Instance, pairs: RadiusPairs) -> LinearSystem:
    """The system on the given in-radius pairs of `inst`, over client classes.

    The facility set is `pairs.facility_pos`, which is also the order in
    which `fair_k_center` scans them for separation.

    Families: per-class coverage sum_i X_iC = w_C (`cover`), openings
    dominating assignments X_iC <= w_C * y_i (`open`), the load definition
    L_i = sum_C X_iC (`load`), per-facility color caps
    sum_{C of color c} X_iC <= alpha * L_i (`colorcap`, only for colors with
    an in-radius client at that facility; the others hold for any X >= 0),
    the minimum load L_i >= ceil(1/alpha) * y_i (`minload`), and the opening
    budget.  Each x column appears in exactly one cap row, so the system has
    5 * x columns + cap rows + 4 * facilities nonzeros.

    It is the per-client system (one x_ij per pair, unit cover, x_ij <= y_i)
    with each class's identical clients merged: averaging a per-client point
    over every class gives a point here, and x_ij = X_iC / w_C gives one
    back, so both are empty together.  Each per-client row is a row here or
    one divided by w_C, so a point within ROW_TOL here maps to one within
    ROW_TOL there.  Its projection onto (x, y) is the polytope with L_i
    substituted out.
    """
    fac_pos, pj, pc = pairs.facility_pos, pairs.pair_client, pairs.pair_color
    nf = len(fac_pos)
    # pf is the pair facility's local index (its y column)
    pf = np.searchsorted(fac_pos, pairs.pair_facility)
    klass = _client_classes(inst, pf, pj, nf)
    weight = np.bincount(klass).astype(float)
    n_cls = weight.size
    # one x column per (facility, class); the pairs run in (facility, client)
    # order, so each column's first pair is that of its class's lowest client
    _, column_pair, pair_column = np.unique(
        pf * n_cls + klass[pj], return_index=True, return_inverse=True
    )
    cf, cc = pf[column_pair], klass[pj[column_pair]]
    n_cols = column_pair.size
    n_vars = nf + n_cols + nf
    fac = np.arange(nf)
    col = np.arange(n_cols)
    xcols = nf + col
    lcols = nf + n_cols + fac
    ones = np.ones(n_cols)

    # one cap row per (facility, color) pair with an in-radius client of color c
    keys, cap_rows = np.unique(cf * inst.n_colors + pc[column_pair], return_inverse=True)
    n_cap = keys.size
    cap_fac = keys // inst.n_colors
    # the first row of colorcap, minload, budget, cover and load
    cap0, min0, budget = n_cols, n_cols + n_cap, n_cols + n_cap + nf
    cover0, load0 = budget + 1, budget + 1 + n_cls

    # (rows, cols, data) per family, as one sparse construction: building a
    # matrix per family and stacking them costs more than the solve on small systems
    triplets = (
        # open: X_iC - w_C * y_i <= 0
        (col, xcols, ones),
        (col, cf, -weight[cc]),
        # colorcap: sum_{C of color c} X_iC - alpha * L_i <= 0
        (cap0 + cap_rows, xcols, ones),
        (cap0 + np.arange(n_cap), lcols[cap_fac], np.full(n_cap, -inst.alpha)),
        # minload: ceil(1/alpha) * y_i - L_i <= 0, so an open facility
        # carries at least ceil(1/alpha) clients of mass
        (min0 + fac, lcols, -np.ones(nf)),
        (min0 + fac, fac, np.full(nf, float(ceil_inv_alpha(inst.alpha)))),
        # budget: sum_i y_i <= k
        (np.full(nf, budget), fac, np.ones(nf)),
        # cover: each class receives its weight in assignment mass
        (cover0 + cc, xcols, ones),
        # load: L_i - sum_C X_iC = 0
        (load0 + fac, lcols, np.ones(nf)),
        (load0 + cf, xcols, -ones),
    )
    rows, cols, data = (np.concatenate(part) for part in zip(*triplets))
    n_rows = load0 + nf
    return LinearSystem(
        lam=pairs.lam,
        alpha=pairs.alpha,
        n_points=inst.n,
        facility_pos=fac_pos,
        pair_facility=pairs.pair_facility,
        pair_client=pj,
        pair_color=pc,
        pair_column=pair_column,
        column_pair=column_pair,
        a=sp.csc_matrix((data, (rows, cols)), shape=(n_rows, n_vars)),
        row_lower=np.concatenate([np.full(cover0, -np.inf), weight, np.zeros(nf)]),
        row_upper=np.concatenate([np.zeros(budget), [float(inst.k)], weight, np.zeros(nf)]),
        families={
            "cover": slice(cover0, load0),
            "open": slice(0, cap0),
            "load": slice(load0, n_rows),
            "colorcap": slice(cap0, min0),
            "minload": slice(min0, budget),
            "budget": slice(budget, cover0),
        },
        upper=np.concatenate([np.ones(nf), weight[cc], np.full(nf, np.inf)]),
    )


def _client_classes(inst: Instance, pf: np.ndarray, pj: np.ndarray, nf: int) -> np.ndarray:
    """Each client's class: one per color and in-radius facility set, numbered by lowest client.

    `pf` and `pj` are the pairs' facility indices and client positions.
    """
    member = np.zeros((inst.n, nf), dtype=bool)
    member[pj, pf] = True
    key = np.column_stack([inst.colors(), np.packbits(member, axis=1)])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.reshape(-1)]


def validate_point(sys: LinearSystem, vec: np.ndarray) -> list[str]:
    """Re-check every row and column bound against a raw variable vector, within ROW_TOL.

    The color caps are also re-checked on the x columns alone, per facility
    and color sum_{C of color c} X_iC <= alpha * sum_C X_iC, so the cap
    guarantee never rests on the load columns.
    """
    bad: list[str] = []
    if (vec < -ROW_TOL).any() or (vec > sys.upper + ROW_TOL).any():
        bad.append("variable bound violated")
    av = sys.a @ vec
    gap = np.maximum(sys.row_lower - av, av - sys.row_upper)
    for family, rows in sys.families.items():
        worst = gap[rows].max(initial=0.0)
        if worst > ROW_TOL:
            bad.append(f"{family}: violation {worst:.3e}")
    nf, n_cols = sys.facility_pos.size, sys.column_pair.size
    if n_cols:
        x = vec[nf : nf + n_cols]
        color = sys.pair_color[sys.column_pair]
        n_colors = int(color.max()) + 1
        mass = np.bincount(
            sys.pair_facility[sys.column_pair] * n_colors + color,
            weights=x,
            minlength=sys.n_points * n_colors,
        ).reshape(sys.n_points, n_colors)
        worst = (mass - sys.alpha * mass.sum(axis=1, keepdims=True)).max()
        if worst > ROW_TOL:
            bad.append(f"color cap on x: violation {worst:.3e}")
    return bad


def _solve_highs(
    a: sp.csc_matrix,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    upper: np.ndarray,
    integrality: np.ndarray | None = None,
) -> np.ndarray | None:
    """HiGHS on row_lower <= a @ v <= row_upper, 0 <= v <= upper: a point, None when infeasible.

    The one HiGHS call of the package, for the radius LP (the dual simplex)
    and, with `integrality`, `capped_opt`'s 0/1 program.  `output_flag`
    off makes `milp` return the vertex `linprog(method="highs")` returns;
    `milp` warns that it passes the option to HiGHS verbatim, and only that
    warning is silenced.  Any status but optimal or infeasible raises
    SolverError.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(
            np.zeros(a.shape[1]),
            integrality=integrality,
            bounds=Bounds(0.0, upper),
            constraints=LinearConstraint(a, row_lower, row_upper),
            options={"output_flag": False},
        )
    if res.status == 2:
        return None
    if res.status != 0:
        raise SolverError(f"HiGHS status {res.status}: {res.message}")
    return res.x


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
    """A per-client point satisfying every row within 1e-7, or None when the polytope is empty.

    SciPy's HiGHS decides on the class system, and its point is re-checked
    against every row.  Each pair then gets x_ij = X_iC / w_C, its class
    column's mass spread evenly over the class, in pair order.  Numerical
    failures raise SolverError, they are never reported as infeasible.  The
    solve-free `passes_prechecks` is the caller's to run first;
    `fair_k_center` runs it before it builds any row.
    """
    vec = _solve_highs(sys.a, sys.row_lower, sys.row_upper, sys.upper)
    if vec is None:
        return None
    bad = validate_point(sys, vec)
    if bad:
        raise SolverError("HiGHS returned an invalid point: " + "; ".join(bad))
    nf = sys.facility_pos.size
    # w_C is the upper bound of X_iC
    xcols = nf + sys.pair_column
    x = vec[xcols] / sys.upper[xcols]
    support = x > 1e-12
    y = np.zeros(sys.n_points)
    y[sys.facility_pos] = vec[:nf]
    return FractionalSolution(sys.pair_facility[support], sys.pair_client[support], x[support], y)

