"""Integral max-flow with per-arc lower bounds, and the client-assignment network."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .core import ContractViolation, InputError, Instance

SNAP_TOL = 1e-6
SUPPORT_TOL = 1e-9

SOURCE = 0
SINK = 1
INT32_MAX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network on nodes 0..n_nodes-1; arc k runs tail[k] -> head[k].

    Each arc carries integer bounds [lower[k], cap[k]].  Node 0 is the source
    and node 1 the sink.  `point` names the point id each node stands for
    (-1 for none); without it a node stands for its own number.
    """

    n_nodes: int
    tail: np.ndarray
    head: np.ndarray
    lower: np.ndarray
    cap: np.ndarray
    point: np.ndarray | None = None

    @property
    def arcs(self) -> range:
        """Arc ids, in the order of the arrays."""
        return range(len(self.tail))

    def points(self) -> np.ndarray:
        return np.arange(self.n_nodes) if self.point is None else self.point


def max_flow_lower_bounds(net: FlowNetwork, demand: int) -> np.ndarray | None:
    """Integral source->sink flow of exactly `demand` meeting all lower bounds.

    Standard reduction: force the value with a sink->source arc of fixed
    demand, cancel lower bounds into node excesses/deficits, and saturate
    them from a super source/sink with one ordinary integral max-flow.
    Returns the flow on each arc, or None when no such flow exists.
    """
    arrays = [np.asarray(a) for a in (net.tail, net.head, net.lower, net.cap)]
    if any(a.dtype.kind not in "iu" or a.shape != arrays[0].shape for a in arrays):
        raise InputError("arc ends and bounds must be integer arrays of one length")
    tail, head, lower, cap = (a.astype(np.int64) for a in arrays)
    n = net.n_nodes
    if n < 2:
        raise InputError("a network needs a source and a sink")
    if ((tail < 0) | (tail >= n) | (head < 0) | (head >= n)).any():
        raise InputError(f"node ids must lie in [0, {n})")
    bad = np.flatnonzero((lower < 0) | (lower > cap))
    if bad.size:
        k = bad[0]
        raise InputError(f"bad bounds [{lower[k]},{cap[k]}] on arc {tail[k]}->{head[k]}")
    if cap.max(initial=0) > INT32_MAX:
        raise InputError("arc capacities must fit in int32")
    key = tail * n + head
    if np.unique(key).size != key.size:
        raise InputError("repeated (tail, head) arc")
    if demand < 0:
        raise InputError("demand must be non-negative")

    excess = np.zeros(n, dtype=np.int64)
    np.add.at(excess, head, lower)
    np.subtract.at(excess, tail, lower)
    # fix the s->t value at `demand` via a saturating return arc
    excess[SOURCE] += demand
    excess[SINK] -= demand
    need = int(excess[excess > 0].sum())
    if need > INT32_MAX:
        raise InputError("total lower-bound excess must fit in int32")

    super_s, super_t = n, n + 1
    gain, loss = np.flatnonzero(excess > 0), np.flatnonzero(excess < 0)
    rows = np.concatenate((tail, np.full(gain.size, super_s), loss))
    cols = np.concatenate((head, gain, np.full(loss.size, super_t)))
    caps = np.concatenate((cap - lower, excess[gain], -excess[loss])).astype(np.int32)
    graph = csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2))
    result = maximum_flow(graph, super_s, super_t)
    if result.flow_value != need:
        return None
    # the flow matrix is skew-symmetric: an arc opposite a busier one reads negative;
    # an empty fancy index would return a sparse matrix, hence the guard
    pushed = np.asarray(result.flow[tail, head]).ravel() if tail.size else tail
    return lower + np.maximum(pushed, 0)


def _snap(v):
    r = np.round(v)
    return np.where(np.abs(v - r) <= SNAP_TOL, r, v)


def build_assignment_network(inst: Instance, frac, opened: np.ndarray) -> FlowNetwork:
    """Assignment network for an integrally-opened fractional solution.

    `opened` holds the integrally opened facilities' positions.  Nodes:
    source, sink, one per client by point position, one per (facility,
    color) pair with support, one per facility with support.
    Clients feed unit arcs into their (facility, color) nodes on the support
    of the fractional assignment; (facility, color) and facility arcs carry
    floor/ceiling bounds of the fractional column sums, which is what pins
    the integral color counts to the fractional ones.
    """
    loose = np.abs(frac.y[opened] - 1.0) > 1e-6
    if loose.any():
        i = inst.id_at(opened[np.argmax(loose)])
        raise ContractViolation(f"facility {i} is not integrally open")

    support = (frac.x > SUPPORT_TOL) & np.isin(frac.facility, opened)
    fpos, cpos, mass = frac.facility[support], frac.client[support], frac.x[support]
    # sums accumulate in the order of frac's pairs, so they are the same floats as a loop's
    fc_keys, fc_of = np.unique(fpos * inst.n_colors + inst.colors()[cpos], return_inverse=True)
    fac_keys, fac_of = np.unique(fpos, return_inverse=True)
    fc_sum = _snap(np.bincount(fc_of, weights=mass, minlength=fc_keys.size))
    fac_sum = _snap(np.bincount(fac_of, weights=mass, minlength=fac_keys.size))

    n = inst.n
    fc_fac = fc_keys // inst.n_colors  # facility position of each (facility, color) node
    fc_node = 2 + n + np.arange(fc_keys.size)
    fac_node = 2 + n + fc_keys.size + np.arange(fac_keys.size)
    order = np.lexsort((cpos, fpos))  # client arcs by (facility, client) position
    layers = [  # (tail, head, lower, cap) of each layer of arcs
        (np.full(n, SOURCE), 2 + np.arange(n), np.zeros(n), np.ones(n)),
        (2 + cpos[order], fc_node[fc_of[order]], np.zeros(order.size), np.ones(order.size)),
        (fc_node, fac_node[np.searchsorted(fac_keys, fc_fac)], np.floor(fc_sum), np.ceil(fc_sum)),
        (fac_node, np.full(fac_keys.size, SINK), np.floor(fac_sum), np.ceil(fac_sum)),
    ]
    tail, head, lower, cap = (np.concatenate(col).astype(np.int64) for col in zip(*layers))
    ids = np.array(inst.ids())
    point = np.concatenate(([-1, -1], ids, ids[fc_fac], ids[fac_keys]))
    return FlowNetwork(point.size, tail, head, lower, cap, point)


def extract_assignment(net: FlowNetwork, flow: np.ndarray) -> dict[int, int]:
    """Map each client to the facility whose (facility, color) arc carries its unit.

    Clients are the heads of the source's arcs; each must send flow on
    exactly one outgoing arc.
    """
    clients = net.head[net.tail == SOURCE]
    sent = np.isin(net.tail, clients) & (np.asarray(flow) > 0)
    senders = net.tail[sent]
    point = net.points()
    counts = np.bincount(senders, minlength=net.n_nodes)
    if (counts > 1).any():
        raise ContractViolation(f"client {point[np.argmax(counts > 1)]} sends more than one unit")
    missing = clients[counts[clients] == 0]
    if missing.size:
        raise ContractViolation(f"clients with no outgoing flow: {sorted(point[missing].tolist())}")
    return dict(zip(point[senders].tolist(), point[net.head[sent]].tolist()))
