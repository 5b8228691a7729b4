import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from cappedkc import BipartiteSeed, InputError, hardness_instance
from cappedkc import make_balanced_instance, make_instance
from cappedkc import cli
from cappedkc.cli import load_csv, main, save_csv


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
    assert inst.coords()[1].tolist() == [1.5]


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


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffid,color,x0,x1\n0,r,0,0\n1,b,0,1\n".encode())
    inst = load_csv(path)
    assert inst.ids() == [0, 1] and inst.coords().tolist() == [[0.0, 0.0], [0.0, 1.0]]


def test_main_undecodable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("id,color,x0\n0,ré,0\n1,b,1\n".encode("latin-1"))
    with pytest.raises(InputError, match="latin1.csv"):
        load_csv(path)
    assert main(["--input", str(path), "--k", "1", "--alpha", "1.0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "latin1.csv" in err


def test_load_csv_balanced_ratio(tmp_path):
    inst = make_balanced_instance(n_colors=50, per_color=50, dim=3, k=25, alpha=0.1, seed=0)
    path = tmp_path / "balanced.csv"
    save_csv(inst, path)
    loaded = load_csv(path)
    assert loaded.n == 2500 and loaded.n_colors == 50
    assert np.bincount(loaded.colors()).max() / loaded.n == pytest.approx(0.02)


def test_csv_round_trip(tmp_path):
    inst = make_instance(
        [(0.25, 1.0 / 3.0), (2.0, -1.75)], ["cat", "dog"], k=1, alpha=0.5, ids=[17, 99]
    )
    path = tmp_path / "rt.csv"
    save_csv(inst, path)
    back = load_csv(path, k=1, alpha=0.5)
    assert back.ids() == [17, 99]
    assert np.array_equal(back.coords(), inst.coords())
    assert back.color_labels == inst.color_labels
    assert np.array_equal(back.colors(), inst.colors())


def test_csv_round_trip_writes_utf8_labels(tmp_path):
    inst = make_instance([(0.0, 0.0), (1.0, 0.0)], ["ré", "b"], k=1, alpha=0.5)
    path = tmp_path / "accent.csv"
    save_csv(inst, path)
    assert "ré".encode() in path.read_bytes()  # UTF-8 whatever the locale encoding
    assert load_csv(path, k=1, alpha=0.5).color_labels == inst.color_labels


def test_save_csv_rejects_a_distance_matrix_instance(tmp_path):
    # a gadget's metric is its matrix: the CSV would hold no distances at all
    path = tmp_path / "gadget.csv"
    with pytest.raises(InputError, match="not on coordinates"):
        save_csv(hardness_instance(BipartiteSeed(2, 2, ((0, 0), (1, 1)))), path)
    assert not path.exists()


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


def test_main_shuffled_ids_only_relabel_the_report(tmp_path, capsys):
    # the same rows under shuffled ids: each id stands where its position stood
    rng = np.random.default_rng(5)
    coords = rng.integers(0, 5, size=(20, 2)).astype(float)
    ids = (rng.permutation(20) * 3 + 100).tolist()
    reports = []
    for name, given in (("plain", None), ("shuffled", ids)):
        path = tmp_path / f"{name}.csv"
        save_csv(make_instance(coords, ["r", "b"] * 10, k=1, alpha=0.5, ids=given), path)
        assert main(["--input", str(path), "--k", "3", "--alpha", "0.5", "--algo", "half", "--no-wall"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, shuffled = reports
    assert plain["status"] == "ok"
    plain.update(
        centers=sorted(ids[p] for p in plain["centers"]),
        assignment={str(ids[int(j)]): ids[c] for j, c in plain["assignment"].items()},
        histograms={str(ids[int(c)]): h for c, h in plain["histograms"].items()},
    )
    assert shuffled == plain


@pytest.mark.parametrize("algo", ["lp", "half", "greedy", "random"])
def test_main_default_k_above_n(tmp_path, capsys, algo):
    # the default --k 25 exceeds the 8 points; no baseline may refuse that
    path = write(
        tmp_path,
        "eight.csv",
        "id,color,x0,x1\n0,r,0,0\n1,b,0,1\n2,r,1,1\n3,b,1,0\n"
        "4,r,5,5\n5,b,5,6\n6,r,6,6\n7,b,6,5\n",
    )
    assert main(["--input", str(path), "--alpha", "0.5", "--algo", algo, "--no-wall"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok" and payload["params"]["k"] == 25
    assert 1 <= len(payload["centers"]) <= 8 and len(payload["assignment"]) == 8


def test_main_wall_time_present_by_default(tmp_path, capsys):
    path = square_csv(tmp_path)
    assert main(["--input", str(path), "--k", "2", "--alpha", "0.5", "--algo", "greedy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "wall_ms" in payload


def test_main_alpha_sweep_csv(tmp_path, capsys):
    path = square_csv(tmp_path)
    out = tmp_path / "table.csv"
    code = main(
        [
            "--input", str(path),
            "--k", "2",
            "--alpha", "0.5,1.0",
            "--algo", "lp",
            "--format", "csv",
            "--output", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("dataset,algorithm,k,alpha")
    # one row per cell, in the order the sweep lists them
    assert [line.split(",")[3] for line in lines[1:]] == ["0.5", "1"]


def test_main_reads_each_input_once(tmp_path, capsys, monkeypatch):
    # every cell of one file takes the same Instance; evaluate applies its alpha
    path = square_csv(tmp_path)
    loads = []

    def counting(path, **kwargs):
        loads.append(path)
        return load_csv(path, **kwargs)

    monkeypatch.setattr(cli, "load_csv", counting)
    args = ["--input", str(path), "--k", "2", "--alpha", "0.5,1.0", "--algo", "lp", "--no-wall"]
    assert main(args) == 0
    assert loads == [str(path)]
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [run["params"]["alpha"] for run in runs] == [0.5, 1.0]


def test_main_json_runs_name_their_dataset(tmp_path, capsys):
    first = square_csv(tmp_path)
    second = write(tmp_path, "shifted.csv", "id,color,x0\n0,r,0.0\n1,b,1.0\n2,r,5.0\n3,b,6.0\n")
    common = ["--k", "2", "--alpha", "0.5", "--algo", "greedy", "--no-wall"]
    assert main(["--input", str(first), str(second)] + common) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [run.pop("dataset") for run in runs] == ["square", "shifted"]
    # without its name, each run is the file's single-cell report
    for path, run in zip((first, second), runs):
        assert main(["--input", str(path)] + common) == 0
        single = json.loads(capsys.readouterr().out)
        assert "dataset" not in single and single == run


def test_main_csv_quotes_dataset_with_comma(tmp_path, capsys):
    path = write(tmp_path, "a,b.csv", square_csv(tmp_path).read_text())
    assert main(["--input", str(path), "--k", "2", "--algo", "greedy", "--format", "csv"]) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert len(row) == len(header)
    assert dict(zip(header, row))["dataset"] == "a,b"


@pytest.mark.parametrize(
    "flag", [["--k", "abc"], ["--algo", "bogus"], ["--svg", "x.svg"], ["--jobs", "2"]]
)
def test_main_usage_error_exits_1(tmp_path, capsys, flag):
    # 2 means "infeasible", so argparse's own exit code must not leak out
    path = square_csv(tmp_path)
    assert main(["--input", str(path)] + flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: cappedkc" in captured.err and "error: " in captured.err


def test_main_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cappedkc")


def test_main_infeasible_exit_code(tmp_path, capsys):
    path = write(tmp_path, "reds.csv", "id,color,x0\n0,r,0.0\n1,r,1.0\n")
    code = main(["--input", str(path), "--k", "2", "--alpha", "0.4", "--algo", "lp"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "infeasible"


def test_main_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["--input", str(missing), "--k", "2"]) == 1


@pytest.mark.parametrize("flag", ["--output"])
def test_main_unwritable_output_is_error(tmp_path, capsys, flag):
    path = square_csv(tmp_path)
    target = tmp_path / "no-such-dir" / "out"
    assert main(["--input", str(path), "--k", "2", "--alpha", "0.5", flag, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err


def test_main_solver_failure_is_error(tmp_path, capsys, monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        return SimpleNamespace(status=4, message="numerical difficulties", x=None)

    monkeypatch.setattr(scipy.optimize, "milp", failing)
    # two unit squares 10 apart: the ladder needs an LP before one center could serve
    # both, whereas a lone square stops at its one-center rung without a solve
    rows = [(0, 0, "r"), (1, 1, "r"), (0, 1, "b"), (1, 0, "b")]
    text = "id,color,x0,x1\n" + "".join(
        f"{4 * s + i},{c},{x + 10 * s}.0,{y}.0\n" for s in (0, 1) for i, (x, y, c) in enumerate(rows)
    )
    path = write(tmp_path, "squares.csv", text)
    assert main(["--input", str(path), "--k", "2", "--alpha", "0.5", "--algo", "lp"]) == 1
    assert calls
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "HiGHS status 4" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("algo", ["lp", "half"])
def test_main_non_finite_coordinate_is_error(tmp_path, capsys, value, algo):
    text = f"id,color,x0,x1\n0,r,0.0,0.0\n1,r,1.0,{value}\n2,b,0.0,1.0\n3,b,1.0,0.0\n"
    path = write(tmp_path, "bad.csv", text)
    assert main(["--input", str(path), "--k", "2", "--alpha", "0.5", "--algo", algo]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("pid", [2**63, -(2**63) - 1])
def test_main_id_outside_64_bits_is_error(tmp_path, capsys, pid):
    path = write(tmp_path, "wide.csv", f"id,color,x0\n{pid},r,0.0\n{2**63 - 1},b,1.0\n")
    assert main(["--input", str(path), "--k", "1", "--alpha", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: point id {pid} does not fit in a signed 64-bit integer\n"
    edge = write(tmp_path, "edge.csv", f"id,color,x0\n{-(2**63)},r,0.0\n{2**63 - 1},b,1.0\n")
    assert load_csv(edge).ids() == [-(2**63), 2**63 - 1]


@pytest.mark.parametrize(
    "flag",
    [
        ["--epsilon", "-1"],
        ["--epsilon", "nan"],
        ["--epsilon", "inf"],
        ["--m", "0"],
        ["--alpha", "0.5,abc"],
        ["--epsilon", "1e-17"],  # 1 + epsilon == 1: the radius ladder would never grow
        ["--alpha", ","],
    ],
)
def test_main_bad_config_is_error(tmp_path, capsys, flag):
    path = square_csv(tmp_path)
    assert main(["--input", str(path), "--k", "2", "--alpha", "0.5"] + flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
