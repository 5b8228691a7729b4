import json

import pytest

from cappedkc import InputError, make_balanced_instance, make_instance
from cappedkc.cli import cost_alpha_svg, load_csv, main, save_csv


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def square_csv(tmp_path):
    return write(
        tmp_path,
        "square.csv",
        "id,color,x0,x1\n0,r,0.0,0.0\n1,r,1.0,1.0\n2,b,0.0,1.0\n3,b,1.0,0.0\n",
    )


def test_load_csv_basic(tmp_path):
    path = write(tmp_path, "two.csv", "id,color,x0\n0,a,0.5\n1,b,1.5\n")
    inst = load_csv(path)
    assert inst.n == 2 and inst.n_colors == 2
    assert inst.points[1].coords == (1.5,)


def test_load_csv_errors(tmp_path):
    with pytest.raises(InputError):
        load_csv(write(tmp_path, "empty.csv", "id,color,x0\n"))
    with pytest.raises(InputError):
        load_csv(write(tmp_path, "head.csv", "a,b,c\n1,r,0\n"))
    with pytest.raises(InputError):
        load_csv(write(tmp_path, "dims.csv", "id,color,x0,x1\n0,r,0.0\n"))
    with pytest.raises(InputError):
        load_csv(write(tmp_path, "dup.csv", "id,color,x0\n0,r,0.0\n0,b,1.0\n"))
    with pytest.raises(InputError):
        load_csv(write(tmp_path, "bad.csv", "id,color,x0\n0,r,zzz\n"))


def test_load_csv_balanced_ratio(tmp_path):
    inst = make_balanced_instance(n_colors=50, per_color=50, dim=3, k=25, alpha=0.1, seed=0)
    path = tmp_path / "balanced.csv"
    save_csv(inst, path)
    loaded = load_csv(path)
    assert loaded.n == 2500 and loaded.n_colors == 50
    counts = {}
    for p in loaded.points:
        counts[p.color] = counts.get(p.color, 0) + 1
    assert max(counts.values()) / loaded.n == pytest.approx(0.02)


def test_csv_round_trip(tmp_path):
    inst = make_instance(
        [(0.25, 1.0 / 3.0), (2.0, -1.75)], ["cat", "dog"], k=1, alpha=0.5, ids=[17, 99]
    )
    path = tmp_path / "rt.csv"
    save_csv(inst, path)
    back = load_csv(path, k=1, alpha=0.5)
    assert [p.id for p in back.points] == [17, 99]
    assert [p.coords for p in back.points] == [p.coords for p in inst.points]
    assert back.color_labels == inst.color_labels
    assert [p.color for p in back.points] == [p.color for p in inst.points]


def test_main_json_deterministic_bytes(tmp_path, capsys):
    path = square_csv(tmp_path)
    args = ["--input", str(path), "--k", "2", "--alpha", "0.5", "--algo", "lp", "--no-wall"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["status"] == "ok"
    assert set(payload) >= {"cost", "delta", "centers", "assignment", "params"}
    assert "wall_ms" not in payload


def test_main_wall_time_present_by_default(tmp_path, capsys):
    path = square_csv(tmp_path)
    assert main(["--input", str(path), "--k", "2", "--alpha", "0.5", "--algo", "greedy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "wall_ms" in payload


def test_main_alpha_sweep_csv_and_svg(tmp_path, capsys):
    path = square_csv(tmp_path)
    out = tmp_path / "table.csv"
    svg = tmp_path / "cost.svg"
    code = main(
        [
            "--input", str(path),
            "--k", "2",
            "--alpha", "0.5,1.0",
            "--algo", "lp",
            "--format", "csv",
            "--output", str(out),
            "--svg", str(svg),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("dataset,algorithm,k,alpha")
    assert svg.read_text().startswith("<svg")


def test_main_infeasible_exit_code(tmp_path, capsys):
    path = write(tmp_path, "reds.csv", "id,color,x0\n0,r,0.0\n1,r,1.0\n")
    code = main(["--input", str(path), "--k", "2", "--alpha", "0.4", "--algo", "lp"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "infeasible"


def test_main_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["--input", str(missing), "--k", "2"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("algo", ["lp", "half"])
def test_main_non_finite_coordinate_is_error(tmp_path, capsys, value, algo):
    text = f"id,color,x0,x1\n0,r,0.0,0.0\n1,r,1.0,{value}\n2,b,0.0,1.0\n3,b,1.0,0.0\n"
    path = write(tmp_path, "bad.csv", text)
    assert main(["--input", str(path), "--k", "2", "--alpha", "0.5", "--algo", algo]) == 1
    assert capsys.readouterr().out == ""


def test_main_jobs_parallel(tmp_path, capsys):
    path = square_csv(tmp_path)
    args = [
        "--input", str(path),
        "--k", "2",
        "--alpha", "0.5,1.0",
        "--algo", "greedy",
        "--jobs", "2",
        "--no-wall",
    ]
    assert main(args) == 0
    parallel = capsys.readouterr().out
    assert main(args[:-3] + ["--no-wall"]) == 0
    serial = capsys.readouterr().out
    assert json.loads(parallel) == json.loads(serial)


def test_svg_scatter_shape():
    text = cost_alpha_svg([(0.1, 2.0), (0.5, 1.0)])
    assert text.count("<circle") == 2
    assert text.startswith("<svg")
