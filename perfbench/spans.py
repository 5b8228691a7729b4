"""Spans around cappedkc's layers, recorded from outside the library.

Each hook replaces one public function where its caller looks it up (the
import site), so the library's own code is untouched. A hook whose function
is gone, for example after the simplex backend is deleted, is skipped and
its metrics read 0. Spans live in memory and are written out when the run
ends; hooks are installed only around traced calls.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("core", "greedy", "harness", "lp_feasibility", "lp_rounding", "flow", "halfcap", "matching")
SOLVERS = ("lp_feasibility.highs", "lp_feasibility.simplex")
ALGORITHMS = ("harness.faster_algorithm", "halfcap.non_dominant_k_center")


def _found(args, kwargs, result):
    return {"found": result is not None}


def _rung(args, kwargs, result):
    return {"lam": float(kwargs["lam"] if "lam" in kwargs else args[1]), "found": result is not None}


def _opened(args, kwargs, result):
    return {"opened": len(getattr(result, "opened", ()))}


def _arcs(args, kwargs, result):
    return {"arcs": len(getattr(result, "arcs", ()))}


def _nnz(m) -> int:
    return int(m.nnz) if hasattr(m, "nnz") else int(np.count_nonzero(m))


def _linprog_size(args, kwargs, result):
    bound = dict(zip(("c", "A_ub", "b_ub", "A_eq", "b_eq"), args)) | kwargs
    mats = [m for m in (bound.get("A_ub"), bound.get("A_eq")) if m is not None]
    return {
        "vars": len(bound["c"]),
        "rows": sum(m.shape[0] for m in mats),
        "nnz": sum(_nnz(m) for m in mats),
    }


def _simplex_size(args, kwargs, result):
    a = kwargs["A"] if "A" in kwargs else args[0]
    return {"vars": a.shape[1], "rows": a.shape[0], "nnz": _nnz(a)}


# (module, attribute at the import site, span name, describe(args, kwargs, result))
HOOKS = (
    ("cappedkc.core", "Instance.pairwise", "core.pairwise", None),
    ("cappedkc.halfcap", "candidate_radii", "core.candidate_radii", None),
    ("cappedkc.harness", "greedy_gold", "harness.greedy_gold", None),
    ("cappedkc.harness", "greedy_k_center", "greedy.greedy_k_center", None),
    ("cappedkc.harness", "lloyd_kcenter_round", "greedy.lloyd_round", None),
    ("cappedkc.harness", "random_baseline", "greedy.random_baseline", None),
    ("cappedkc.harness", "faster_algorithm", "harness.faster_algorithm", None),
    ("cappedkc.harness", "fair_k_center", "lp_rounding.fair_k_center", _rung),
    ("cappedkc.harness", "non_dominant_k_center", "halfcap.non_dominant_k_center", None),
    ("cappedkc.lp_rounding", "build_polytope", "lp_feasibility.build_polytope", None),
    ("cappedkc.lp_rounding", "check_feasible", "lp_feasibility.check_feasible", _found),
    ("cappedkc.lp_feasibility", "phase_one_feasible", "lp_feasibility.simplex", _simplex_size),
    ("cappedkc.lp_feasibility", "linprog", "lp_feasibility.highs", _linprog_size),
    ("scipy.optimize", "linprog", "lp_feasibility.highs", _linprog_size),
    ("cappedkc.lp_rounding", "select_separated_facilities", "lp_rounding.select_separated", _opened),
    ("cappedkc.lp_rounding", "reroute_fractional", "lp_rounding.reroute", None),
    ("cappedkc.lp_rounding", "build_assignment_network", "flow.build_network", _arcs),
    ("cappedkc.lp_rounding", "max_flow_lower_bounds", "flow.max_flow", None),
    ("cappedkc.lp_rounding", "extract_assignment", "flow.extract", None),
    ("cappedkc.halfcap", "threshold_graph", "halfcap.threshold_graph", None),
    ("cappedkc.halfcap", "connected_components", "halfcap.components", None),
    ("cappedkc.halfcap", "caplet_decompose", "halfcap.caplet_decompose", None),
    ("cappedkc.halfcap", "greedy_k_center", "greedy.greedy_k_center", None),
    ("cappedkc.halfcap", "max_matching", "matching.max_matching", None),
)


class Tracer:
    """Spans as [name, site, start, end, parent index, run id, attrs], in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run_id: str | None = None

    def _open(self, name: str, site: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, site, time.perf_counter(), None, parent, self._run_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, site: str, describe):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if describe is not None:
                tracer.spans[idx][6] = describe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def call(self, run_id: str):
        """Install every hook that resolves, record one top-level evaluate() span, then restore."""
        undo = []
        try:
            for module, attr, name, describe in HOOKS:
                try:
                    owner = importlib.import_module(module)
                except ModuleNotFoundError:
                    continue
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None)
                if fn is None:
                    continue
                undo.append((owner, leaf, fn))
                site = module.rsplit(".", 1)[-1]
                setattr(owner, leaf, self._wrap(fn, name, site, describe))
            self._run_id = run_id
            idx = self._open("harness.evaluate", "perfbench")
            try:
                yield
            finally:
                self._close(idx)
                self._run_id = None
        finally:
            for owner, leaf, fn in reversed(undo):
                setattr(owner, leaf, fn)

    def dump(self) -> list[dict]:
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            {"name": n, "site": s, "start": a - t0, "end": b - t0, "parent": p, "run": r, "attrs": x}
            for n, s, a, b, p, r, x in self.spans
        ]

    def rungs(self) -> list[dict]:
        """One record per LP rung: radius, solver, system size and verdict."""
        children = self._children()
        out = []
        for idx, (name, _, _, _, _, run, attrs) in enumerate(self.spans):
            if name != "lp_rounding.fair_k_center":
                continue
            below = [self.spans[i] for i in self._descendants(idx, children)]
            solves = [s for s in below if s[0] in SOLVERS]
            checks = [s for s in below if s[0] == "lp_feasibility.check_feasible"]
            point = bool(checks) and checks[0][6]["found"]
            if attrs["found"]:
                verdict = "accepted"
            elif point:
                verdict = "over_k"
            elif solves:
                verdict = "infeasible"
            else:
                verdict = "precheck"
            size = solves[0][6] if solves else {"vars": 0, "rows": 0, "nnz": 0}
            out.append({
                "run": run,
                "lambda": attrs["lam"],
                "solver": solves[0][0].rsplit(".", 1)[-1] if solves else None,
                "vars": size["vars"],
                "rows": size["rows"],
                "nnz": size["nnz"],
                "verdict": verdict,
            })
        return out

    def _children(self) -> dict[int, list[int]]:
        children = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[4] is not None:
                children[span[4]].append(idx)
        return children

    @staticmethod
    def _descendants(idx: int, children) -> list[int]:
        out, stack = [], list(children.get(idx, ()))
        while stack:
            i = stack.pop()
            out.append(i)
            stack.extend(children.get(i, ()))
        return sorted(out)

    def per_layer(self, calls: int) -> dict[str, float]:
        """Per-layer metrics, per traced evaluate() call."""
        children = self._children()
        total = defaultdict(float)
        count = defaultdict(int)
        self_time = defaultdict(float)
        for idx, (name, site, a, b, _, _, _) in enumerate(self.spans):
            own = (b - a) - sum(self.spans[c][3] - self.spans[c][2] for c in children.get(idx, ()))
            for key in (name, f"{name}@{site}", "layer:" + name.split(".")[0]):
                total[key] += b - a
                count[key] += 1
                self_time[key] += own

        baselines = 0.0
        for idx, span in enumerate(self.spans):
            if span[0] == "harness.evaluate":
                algo = [self.spans[c] for c in children.get(idx, ()) if self.spans[c][0] in ALGORITHMS]
                if algo:
                    baselines += algo[0][2] - span[2]

        solves = [s for s in self.spans if s[0] in SOLVERS]
        rungs = self.rungs()
        verdicts = [r["verdict"] for r in rungs]
        useful = sum(1 for r in rungs if r["solver"] and r["verdict"] in ("accepted", "over_k"))

        def attr_sum(name, key):
            return sum(s[6][key] for s in self.spans if s[0] == name)

        per_call = {
            "core.pairwise_s": total["core.pairwise"],
            "core.pairwise_calls": count["core.pairwise"],
            "core.candidate_radii_s": total["core.candidate_radii"],
            "greedy.greedy_k_center_s": total["greedy.greedy_k_center"],
            "greedy.greedy_k_center_calls": count["greedy.greedy_k_center"],
            "greedy.lloyd_round_s": total["greedy.lloyd_round"],
            "greedy.random_baseline_s": total["greedy.random_baseline"],
            "harness.baselines_s": baselines,
            "harness.faster_algorithm_s": total["harness.faster_algorithm"],
            "harness.rungs": len(rungs),
            "lp_feasibility.build_polytope_s": total["lp_feasibility.build_polytope"],
            "lp_feasibility.check_feasible_s": total["lp_feasibility.check_feasible"],
            "lp_feasibility.precheck_rejects": verdicts.count("precheck"),
            "lp_feasibility.lp_solves": len(solves),
            "lp_feasibility.lp_infeasible": verdicts.count("infeasible"),
            "lp_feasibility.highs_s": total["lp_feasibility.highs"],
            "lp_feasibility.highs_calls": count["lp_feasibility.highs"],
            "lp_feasibility.simplex_s": total["lp_feasibility.simplex"],
            "lp_feasibility.simplex_calls": count["lp_feasibility.simplex"],
            "lp_feasibility.nnz_total": sum(s[6]["nnz"] for s in solves),
            "lp_rounding.fair_k_center_s": total["lp_rounding.fair_k_center"],
            "lp_rounding.select_separated_s": total["lp_rounding.select_separated"],
            "lp_rounding.reroute_s": total["lp_rounding.reroute"],
            "lp_rounding.opened": attr_sum("lp_rounding.select_separated", "opened"),
            "lp_rounding.over_k_rejects": verdicts.count("over_k"),
            "flow.build_network_s": total["flow.build_network"],
            "flow.max_flow_s": total["flow.max_flow"],
            "flow.extract_s": total["flow.extract"],
            "flow.arcs": attr_sum("flow.build_network", "arcs"),
            "halfcap.radii_scanned": count["halfcap.threshold_graph"],
            "halfcap.threshold_graph_s": total["halfcap.threshold_graph"],
            "halfcap.components_s": total["halfcap.components"],
            "halfcap.caplet_decompose_s": total["halfcap.caplet_decompose"],
            "halfcap.caplet_calls": count["halfcap.caplet_decompose"],
            "halfcap.greedy_reps_s": total["greedy.greedy_k_center@halfcap"],
            "halfcap.self_s": self_time["halfcap.non_dominant_k_center"],
            "matching.max_matching_s": total["matching.max_matching"],
            "matching.calls": count["matching.max_matching"],
            "trace.spans": len(self.spans),
        }
        per_call.update({f"{layer}.layer_self_s": self_time["layer:" + layer] for layer in LAYERS})
        m = {k: v / calls for k, v in per_call.items()}
        m["lp_feasibility.solve_useful_ratio"] = useful / len(solves) if solves else 0.0
        for key in ("vars", "rows", "nnz"):
            m[f"lp_feasibility.{key}_max"] = max((s[6][key] for s in solves), default=0)
        return m
