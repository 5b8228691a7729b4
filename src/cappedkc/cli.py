"""Command-line front end: ingest CSV datasets, dispatch algorithms, emit reports."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .core import InputError, Instance, make_instance
from .harness import (
    CappedInstanceReport,
    RunConfig,
    evaluate,
    report_to_dict,
    reports_to_csv,
)
from .lp_feasibility import SolverError


def load_csv(path: str | Path, k: int = 1, alpha: float = 1.0) -> Instance:
    """Read a `id,color,x0,x1,...` file into an Instance (colors re-indexed densely)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        if len(header) < 3 or header[0] != "id" or header[1] != "color":
            raise InputError(f"{path}: header must be id,color,x0,x1,...")
        dim = len(header) - 2
        ids: list[int] = []
        labels: list[str] = []
        coords: list[tuple[float, ...]] = []
        seen: set[int] = set()
        for lineno, row in enumerate(reader, start=2):
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
    """Emit an instance in the load_csv format (round-trips exactly via repr floats)."""
    path = Path(path)
    labels = [inst.color_labels[c] for c in inst.colors().tolist()]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "color"] + [f"x{d}" for d in range(inst.coords().shape[1])])
        for pid, label, vec in zip(inst.ids(), labels, inst.coords().tolist()):
            writer.writerow([pid, label] + [repr(v) for v in vec])


def cost_alpha_svg(points: list[tuple[float, float]], width: int = 480, height: int = 320) -> str:
    """Minimal scatter of solution cost against alpha (deterministic bytes)."""
    margin = 48.0
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = 0.0, max(ys) or 1.0
    if x1 <= x0:
        x1 = x0 + 1.0

    def sx(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">alpha</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.1f})">cost</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10" '
        f'text-anchor="middle">{x0:.4g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="10" '
        f'text-anchor="middle">{x1:.4g}</text>',
        f'<text x="{margin - 6}" y="{sy(y1):.1f}" font-size="10" text-anchor="end">{y1:.4g}</text>',
        f'<text x="{margin - 6}" y="{height - margin:.1f}" font-size="10" '
        f'text-anchor="end">{y0:.4g}</text>',
    ]
    for x, y in points:
        out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#1f6fb2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _run_cell(task: tuple[str, str, RunConfig]) -> tuple[str, CappedInstanceReport]:
    name, path, cfg = task
    inst = load_csv(path, k=cfg.k, alpha=cfg.alpha)
    return name, evaluate(inst, cfg)


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
    parser.add_argument("--svg", default=None, help="optional cost-vs-alpha scatter path")
    parser.add_argument("--jobs", type=int, default=1, help="parallel (dataset, alpha) cells")
    parser.add_argument("--no-wall", action="store_true", help="omit wall_ms from JSON output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        alphas = [float(a) for a in str(args.alpha).split(",") if a]
    except ValueError:
        print(f"error: bad --alpha {args.alpha!r}", file=sys.stderr)
        return 1
    if not alphas:
        print("error: --alpha needs at least one value", file=sys.stderr)
        return 1
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 1

    try:
        tasks = []
        for path in args.input:
            for alpha in alphas:
                cfg = RunConfig(
                    k=args.k,
                    alpha=alpha,
                    epsilon=args.epsilon,
                    m=args.m,
                    algorithm=args.algo,
                    seed=args.seed,
                )
                tasks.append((Path(path).stem, path, cfg))
        if args.jobs > 1 and len(tasks) > 1:
            # the pool forks all its workers on first use, so never more than cells
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
                results = list(pool.map(_run_cell, tasks))
        else:
            results = [_run_cell(t) for t in tasks]

        if args.format == "csv":
            text = reports_to_csv(results)
        else:
            dicts = [report_to_dict(r, not args.no_wall) for _, r in results]
            payload = dicts[0] if len(dicts) == 1 else {"runs": dicts}
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        # the scatter goes first, so a path that cannot be written leaves stdout empty
        if args.svg is not None:
            pts = [
                (r.params["alpha"], r.cost)
                for _, r in results
                if r.status == "ok" and r.cost is not None
            ]
            Path(args.svg).write_text(cost_alpha_svg(pts))
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
