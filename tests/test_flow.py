import random

import numpy as np
import pytest
from scipy.optimize import linprog

from cappedkc import (
    ContractViolation,
    FlowNetwork,
    InputError,
    build_assignment_network,
    extract_assignment,
    make_instance,
    max_flow_lower_bounds,
)
from cappedkc.flow import SINK, SOURCE
from conftest import fractional_point


def network(n_nodes, arcs, point=None) -> FlowNetwork:
    """Network from (tail, head, lower, cap) rows."""
    tail, head, lower, cap = (np.array(col, dtype=np.int64) for col in zip(*arcs))
    return FlowNetwork(n_nodes, tail, head, lower, cap, point)


def single_path_network() -> FlowNetwork:
    # source, sink, client 0, (facility 7, color 0), facility 7
    arcs = [(SOURCE, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (4, SINK, 1, 1)]
    return network(5, arcs, np.array([-1, -1, 0, 7, 7]))


def assert_feasible_flow(net: FlowNetwork, flow, demand: int):
    """Integral, within [lower, cap] on every arc, conserved, and of value `demand`."""
    assert flow.dtype.kind == "i" and flow.shape == net.tail.shape
    assert (net.lower <= flow).all() and (flow <= net.cap).all()
    balance = np.bincount(net.head, flow, net.n_nodes) - np.bincount(net.tail, flow, net.n_nodes)
    assert (balance[2:] == 0).all()
    assert balance[SOURCE] == -demand and balance[SINK] == demand


def test_single_path_saturates():
    flow = max_flow_lower_bounds(single_path_network(), 1)
    assert flow is not None
    assert flow.tolist() == [1, 1, 1, 1]


def test_single_path_extraction():
    net = single_path_network()
    flow = max_flow_lower_bounds(net, 1)
    assert extract_assignment(net, flow) == {0: 7}


def test_zero_lower_bounds_is_plain_max_flow():
    # classic diamond: s->a (3), s->b (2), a->t (2), b->t (3), a->b (2); max flow 5
    a, b = 2, 3
    net = network(
        4,
        [(SOURCE, a, 0, 3), (SOURCE, b, 0, 2), (a, SINK, 0, 2), (b, SINK, 0, 3), (a, b, 0, 2)],
    )
    flow = max_flow_lower_bounds(net, 5)
    assert flow is not None
    assert_feasible_flow(net, flow, 5)
    assert max_flow_lower_bounds(net, 6) is None


def test_infeasible_lower_bounds():
    # the client needs 2 units out but only 1 can arrive
    net = network(3, [(SOURCE, 2, 0, 1), (2, SINK, 2, 3)])
    assert max_flow_lower_bounds(net, 1) is None


def test_malformed_bounds_rejected():
    with pytest.raises(InputError):
        max_flow_lower_bounds(network(2, [(SOURCE, SINK, 3, 2)]), 1)
    with pytest.raises(InputError):
        max_flow_lower_bounds(FlowNetwork(2, np.array([0]), np.array([1]), np.array([0.5]), np.array([2])), 1)
    with pytest.raises(InputError, match="node ids"):
        max_flow_lower_bounds(network(3, [(SOURCE, 3, 0, 1)]), 1)
    with pytest.raises(InputError, match="node ids"):
        max_flow_lower_bounds(network(3, [(-1, SINK, 0, 1)]), 1)
    with pytest.raises(InputError, match="repeated"):
        max_flow_lower_bounds(network(2, [(SOURCE, SINK, 0, 1), (SOURCE, SINK, 0, 2)]), 1)
    with pytest.raises(InputError, match="int32"):
        max_flow_lower_bounds(network(2, [(SOURCE, SINK, 0, 2**31)]), 1)
    with pytest.raises(InputError, match="int32"):
        max_flow_lower_bounds(network(2, [(SOURCE, SINK, 0, 2**31 - 1)]), 2**31)
    with pytest.raises(InputError):
        max_flow_lower_bounds(network(2, [(SOURCE, SINK, 0, 1)]), -1)


def test_opposite_arcs_meet_bounds_and_conservation():
    # b->a is forced to carry 1 back, so a->b carries 3 and the solver's
    # skew-symmetric flow matrix reads -3 on b->a
    a, b = 2, 3
    net = network(4, [(SOURCE, a, 0, 3), (a, b, 0, 3), (b, a, 1, 1), (b, SINK, 0, 3)])
    flow = max_flow_lower_bounds(net, 2)
    assert flow is not None
    assert_feasible_flow(net, flow, 2)
    assert flow.tolist() == [2, 3, 1, 2]


def random_network(rng: random.Random) -> tuple[FlowNetwork, int]:
    n = rng.randint(2, 6)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = []
    for u, v in rng.sample(pairs, rng.randint(1, min(len(pairs), 12))):
        cap = rng.randint(0, 3)
        lower = rng.randint(0, cap) if rng.random() < 0.3 else 0
        arcs.append((u, v, lower, cap))
    return network(n, arcs), rng.randint(0, 3)


def lp_feasible(net: FlowNetwork, demand: int) -> bool:
    """Whether the flow polytope is non-empty, by linprog (network matrices are TU)."""
    m = net.tail.size
    incidence = np.zeros((net.n_nodes, m))
    incidence[net.head, np.arange(m)] += 1
    incidence[net.tail, np.arange(m)] -= 1
    rhs = np.zeros(net.n_nodes)
    rhs[SOURCE], rhs[SINK] = -demand, demand
    res = linprog(
        np.zeros(m),
        A_eq=incidence,
        b_eq=rhs,
        bounds=list(zip(net.lower.tolist(), net.cap.tolist())),
        method="highs",
    )
    assert res.status in (0, 2)
    return res.status == 0


def test_random_networks_match_lp_oracle():
    rng = random.Random(5_150)
    feasible = with_lower_bounds = 0
    for _ in range(300):
        net, demand = random_network(rng)
        flow = max_flow_lower_bounds(net, demand)
        assert (flow is not None) == lp_feasible(net, demand)
        if flow is not None:
            assert_feasible_flow(net, flow, demand)
            feasible += 1
            with_lower_bounds += demand > 0 and (net.lower > 0).any()
    # both verdicts are well represented, and so are flows that lower bounds shape
    assert 60 <= feasible <= 240 and with_lower_bounds >= 20


def coincident_instance(colors):
    return make_instance([(0.0,)] * len(colors), colors, k=1, alpha=0.5)


def test_network_bounds_fractional_sums():
    # column sums 1.5 red and 0.5 blue at one facility
    inst = coincident_instance(["r", "r", "r", "b"])
    frac = fractional_point(
        inst,
        x={(0, 0): 0.5, (0, 1): 0.5, (0, 2): 0.5, (0, 3): 0.5},
        y={0: 1.0},
    )
    net = build_assignment_network(inst, frac, [0])
    # source, sink, clients 0-3, (0, red), (0, blue), facility 0
    assert net.point.tolist() == [-1, -1, 0, 1, 2, 3, 0, 0, 0]
    bounds = {(t, h): (lo, c) for t, h, lo, c in zip(net.tail, net.head, net.lower, net.cap)}
    assert bounds[(6, 8)] == (1, 2)
    assert bounds[(7, 8)] == (0, 1)
    assert bounds[(8, SINK)] == (2, 2)


def test_network_bounds_integral_sums_collapse():
    inst = coincident_instance(["r", "b"])
    frac = fractional_point(inst, x={(0, 0): 1.0, (0, 1): 1.0}, y={0: 1.0})
    net = build_assignment_network(inst, frac, [0])
    beyond_clients = net.tail >= 2 + inst.n
    assert beyond_clients.any()
    assert (net.lower[beyond_clients] == net.cap[beyond_clients]).all()
    fac = net.head == SINK
    assert (net.lower[fac].tolist(), net.cap[fac].tolist()) == ([2], [2])


def test_snapping_absorbs_float_dust():
    inst = coincident_instance(["r", "b"])
    frac = fractional_point(inst, x={(0, 0): 0.9999999, (0, 1): 1.0000001}, y={0: 1.0})
    net = build_assignment_network(inst, frac, [0])
    fac = net.head == SINK
    assert (net.lower[fac].tolist(), net.cap[fac].tolist()) == ([2], [2])


def test_unit_coverage_network_has_full_flow():
    # balanced fractional point with unit row sums: integral |D|-flow must exist
    inst = make_instance([(0.0,), (0.0,), (1.0,), (1.0,)], ["r", "b", "r", "b"], k=2, alpha=0.5)
    x = {(0, 0): 1.0, (0, 1): 0.5, (2, 1): 0.5, (2, 2): 1.0, (0, 3): 0.5, (2, 3): 0.5}
    frac = fractional_point(inst, x, y={0: 1.0, 2: 1.0})
    net = build_assignment_network(inst, frac, [0, 2])
    flow = max_flow_lower_bounds(net, 4)
    assert flow is not None
    assert_feasible_flow(net, flow, 4)
    assign = extract_assignment(net, flow)
    assert set(assign) == {0, 1, 2, 3}
    # support of the extraction is inside the fractional support
    for j, i in assign.items():
        assert x.get((i, j), 0.0) > 0


def test_network_names_clients_and_facilities_by_id():
    # ids out of position order: nodes follow positions, labels carry ids
    inst = make_instance([(0.0,), (0.0,)], ["r", "b"], k=1, alpha=0.5, ids=[9, 4])
    frac = fractional_point(inst, x={(4, 9): 1.0, (4, 4): 1.0}, y={4: 1.0})
    net = build_assignment_network(inst, frac, np.array([1]))  # id 4 opens, by position
    assert net.point.tolist() == [-1, -1, 9, 4, 4, 4, 4]
    flow = max_flow_lower_bounds(net, 2)
    assert extract_assignment(net, flow) == {9: 4, 4: 4}


def test_extract_missing_client_is_contract_violation():
    net = network(5, [(SOURCE, 2, 0, 1), (2, 3, 0, 1), (3, 4, 0, 1), (4, SINK, 0, 1)])
    zero = max_flow_lower_bounds(net, 0)
    assert zero is not None
    with pytest.raises(ContractViolation, match="no outgoing flow"):
        extract_assignment(net, zero)


def test_extract_client_sending_twice_is_contract_violation():
    net = network(5, [(SOURCE, 2, 0, 2), (2, 3, 0, 1), (2, 4, 0, 1), (3, SINK, 0, 1), (4, SINK, 0, 1)])
    flow = max_flow_lower_bounds(net, 2)
    assert flow is not None
    with pytest.raises(ContractViolation, match="more than one unit"):
        extract_assignment(net, flow)
