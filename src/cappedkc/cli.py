"""Command-line front end: ingest CSV datasets, dispatch algorithms, emit reports."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .core import InputError, Instance, make_instance
from .harness import RunConfig, evaluate, report_to_dict, reports_to_csv
from .lp_feasibility import SolverError


def load_csv(path: str | Path, k: int = 1, alpha: float = 1.0) -> Instance:
    """Read a `id,color,x0,x1,...` file into an Instance (colors re-indexed densely)."""
    path = Path(path)
    try:  # utf-8-sig drops a byte order mark before the header
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise InputError(f"{path}: empty file")
    header = rows[0]
    if len(header) < 3 or header[0] != "id" or header[1] != "color":
        raise InputError(f"{path}: header must be id,color,x0,x1,...")
    dim = len(header) - 2
    ids: list[int] = []
    labels: list[str] = []
    coords: list[tuple[float, ...]] = []
    seen: set[int] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != dim + 2:
            raise InputError(f"{path}:{lineno}: expected {dim + 2} fields, got {len(row)}")
        try:
            pid = int(row[0])
            vec = tuple(float(v) for v in row[2:])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if pid in seen:
            raise InputError(f"{path}:{lineno}: duplicate id {pid}")
        seen.add(pid)
        ids.append(pid)
        labels.append(row[1])
        coords.append(vec)
    if not ids:
        raise InputError(f"{path}: no data rows")
    return make_instance(coords, labels, k=k, alpha=alpha, ids=ids)


def save_csv(inst: Instance, path: str | Path):
    """Emit an instance in the load_csv format (round-trips exactly via repr floats).

    InputError, before writing, when its metric is not on coordinates."""
    if inst._dist is not None or not inst.coords().shape[1]:
        raise InputError("save_csv writes coordinates: this metric is not on coordinates")
    path = Path(path)
    labels = [inst.color_labels[c] for c in inst.colors().tolist()]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "color"] + [f"x{d}" for d in range(inst.coords().shape[1])])
        for pid, label, vec in zip(inst.ids(), labels, inst.coords().tolist()):
            writer.writerow([pid, label] + [repr(v) for v in vec])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cappedkc",
        description="Capped k-center clustering: per-cluster color caps with provable slack.",
    )
    parser.add_argument("--input", nargs="+", required=True, help="dataset CSV path(s)")
    parser.add_argument("--k", type=int, default=25)
    parser.add_argument("--alpha", default="0.5", help="cap fraction, comma-separated for sweeps")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--m", type=int, default=2, help="coreset multiplier (m*k facilities)")
    parser.add_argument("--algo", choices=["greedy", "random", "lp", "half"], default="lp")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="-", help="report path, '-' for stdout")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--no-wall", action="store_true", help="omit wall_ms from JSON output")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run every (dataset, alpha) cell in order and emit one report.

    Each dataset is read once.  Several cells print {"runs": [...]} in JSON,
    each run naming its dataset.

    Returns 0 on success, 1 on a usage or input error (message on stderr,
    nothing on stdout) and 2 when some cell is infeasible.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        alphas = [float(a) for a in str(args.alpha).split(",") if a]
    except ValueError:
        print(f"error: bad --alpha {args.alpha!r}", file=sys.stderr)
        return 1
    if not alphas:
        print("error: --alpha needs at least one value", file=sys.stderr)
        return 1

    try:
        cfgs = [
            RunConfig(
                k=args.k,
                alpha=alpha,
                epsilon=args.epsilon,
                m=args.m,
                algorithm=args.algo,
                seed=args.seed,
            )
            for alpha in alphas
        ]
        results = []
        for path in args.input:
            # evaluate applies each cell's k and alpha, so a file's cells share its rows
            inst = load_csv(path, k=args.k, alpha=alphas[0])
            results.extend((Path(path).stem, evaluate(inst, cfg)) for cfg in cfgs)

        if args.format == "csv":
            text = reports_to_csv(results)
        else:
            wall = not args.no_wall
            if len(results) == 1:
                payload = report_to_dict(results[0][1], wall)
            else:
                payload = {"runs": [{"dataset": n, **report_to_dict(r, wall)} for n, r in results]}
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.output == "-":
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text)
    except (InputError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if any(r.status == "infeasible" for _, r in results):
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
