import csv
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import kdiam.explicit
from kdiam import cli, geometry
from kdiam.cli import main
from kdiam.graph import load_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_unit_squares_shape(self, tmp_path, capsys):
        out = tmp_path / "sq.csv"
        code, _, _ = run(capsys, "gen", "unit-squares", "--n", "10",
                         "--box", "5", "--seed", "1",
                         "--output", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10
        assert all(len(ln.split(",")) == 2 for ln in lines)

    def test_sparse_graph_connected(self, tmp_path, capsys):
        out = tmp_path / "g.el"
        code, _, _ = run(capsys, "gen", "sparse-graph", "--n", "20",
                         "--m", "30", "--seed", "2", "--output", str(out))
        assert code == 0
        g = load_edge_list(out)  # raises if disconnected
        assert g.n == 20 and g.m == 30

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen", "unit-squares", "--n", "15", "--seed", "7",
            "--output", str(a))
        run(capsys, "gen", "unit-squares", "--n", "15", "--seed", "7",
            "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_polygon_points_writes_both(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        code, _, _ = run(capsys, "gen", "polygon-points", "--n", "12",
                         "--sides", "6", "--seed", "3", "--output", str(out))
        assert code == 0
        assert out.exists()
        assert (tmp_path / "pts.poly.csv").exists()


class TestDiam:
    @pytest.fixture()
    def square_instance(self, tmp_path, capsys):
        out = tmp_path / "sq.csv"
        run(capsys, "gen", "unit-squares", "--n", "25", "--seed", "4",
            "--output", str(out))
        return out

    def test_all_algorithms_agree(self, square_instance, capsys):
        answers = {}
        for algo in ("naive", "explicit", "implicit"):
            code, out, _ = run(capsys, "diam", "--algo", algo,
                               "--input", str(square_instance),
                               "--k", "3", "--seed", "5")
            assert code == 0
            report = json.loads(out)
            answers[algo] = report["answer"]
            assert report["k"] == 3
            assert report["wall_seconds"] >= 0
        assert len(set(answers.values())) == 1

    def test_graph_instance_explicit(self, tmp_path, capsys):
        gf = tmp_path / "g.el"
        run(capsys, "gen", "sparse-graph", "--n", "12", "--m", "16",
            "--seed", "6", "--output", str(gf))
        code, out, _ = run(capsys, "diam", "--algo", "explicit",
                           "--input", str(gf), "--k", "6", "--d", "3")
        assert code == 0
        assert json.loads(out)["algorithm"] == "explicit"

    def test_report_to_file(self, square_instance, tmp_path, capsys):
        rep = tmp_path / "report.json"
        code, _, _ = run(capsys, "diam", "--algo", "naive",
                         "--input", str(square_instance), "--k", "2",
                         "--output", str(rep))
        assert code == 0
        assert json.loads(rep.read_text())["algorithm"] == "naive"

    def test_csv_format(self, square_instance, capsys):
        code, out, _ = run(capsys, "diam", "--algo", "naive",
                           "--input", str(square_instance), "--k", "2",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1 and rows[0]["algorithm"] == "naive"


class TestVerify:
    def test_small_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--generator", "unit-squares",
                           "--trials", "4", "--n-max", "18",
                           "--k-max", "3", "--seed", "8")
        assert code == 0
        summary = json.loads(out)
        assert summary["failures"] == []
        assert summary["checks"] == 4 * 3 * 3

    def test_sparse_graph_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--generator", "sparse-graph",
                           "--trials", "4", "--n-max", "15", "--d", "3",
                           "--k-max", "3", "--seed", "9")
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_oracle_graph_built_once_per_trial(self, capsys, monkeypatch):
        # naive and explicit run on the trial's graph at every k; implicit
        # builds its structure from the points
        built = []

        def counting(*args):
            built.append(args)
            return geometry.intersection_graph_naive(*args)

        monkeypatch.setattr(cli, "intersection_graph_naive", counting)
        code, out, _ = run(capsys, "verify", "--generator", "unit-squares",
                           "--trials", "2", "--n-max", "12",
                           "--k-max", "4", "--seed", "0")
        assert code == 0
        summary = json.loads(out)
        assert summary["failures"] == []
        assert summary["checks"] == 2 * 4 * 3
        assert len(built) == 2

    @pytest.mark.parametrize("algo", ["naive", "explicit"])
    def test_a_lying_algorithm_fails(self, capsys, monkeypatch, algo):
        # Each algorithm is checked against the per-source BFS oracle, so a
        # wrong naive diameter fails too.  The liar claims diameter 1.
        if algo == "naive":
            monkeypatch.setattr(cli, "diameter_naive", lambda g: 1)
        else:
            full = SimpleNamespace(radius=1, full=True)
            monkeypatch.setattr(kdiam.explicit, "radius_steps",
                                lambda g, d, rng: iter([full]))
        code, out, _ = run(capsys, "verify", "--generator", "sparse-graph",
                           "--trials", "2", "--n-max", "12",
                           "--k-max", "2", "--seed", "0")
        assert code == 1
        summary = json.loads(out)
        assert summary["checks"] == 2 * 2 * 3
        assert summary["failures"]
        assert {f["algorithm"] for f in summary["failures"]} == {algo}
        assert all(f["got"] and not f["expected"]
                   for f in summary["failures"])

    @pytest.mark.parametrize("argv,message", [
        (["--n-max", "2"], "--n-max must be >= 3, got 2"),
        (["--generator", "sparse-graph", "--n-max", "2"],
         "--n-max must be >= 3, got 2"),
        (["--k-min", "3", "--k-max", "2"], "--k-max 2 is below --k-min 3"),
        (["--trials", "0"], "--trials must be >= 1, got 0"),
        (["--k-min", "0"], "explicit algorithm needs k >= 1"),
        (["--d", "1"], "d must be >= 2, got 1"),
    ])
    def test_bad_arguments_exit_2_before_any_work(self, capsys, monkeypatch,
                                                   argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(cli.gen_mod, "random_connected_graph", refuse)
        monkeypatch.setattr(cli.gen_mod, "random_unit_square_points", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.strip().splitlines() == ["error: " + message]

    def test_unknown_algorithm_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--algos", "naive", "fast"])
        assert exc.value.code == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err


class TestBench:
    def test_csv_shape_and_slope_line(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, err = run(capsys, "bench", "--kind", "unit-squares",
                           "--sizes", "60,120", "--k", "2", "--seed", "10",
                           "--output", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["n"] for r in rows] == ["60", "120"]
        assert "log-log slope" in err

    def test_counters_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            run(capsys, "bench", "--kind", "unit-squares",
                "--sizes", "50,100", "--k", "2", "--seed", "11",
                "--output", str(out))
            rows = list(csv.DictReader(out.open()))
            outs.append([(r["n"], r["diff_sum"], r["identity_diff_sum"])
                         for r in rows])
        assert outs[0] == outs[1]


class TestErrors:
    def test_missing_m(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "sparse-graph", "--n", "5", "--seed", "0",
                  "--output", str(tmp_path / "x.el")])

    def test_bad_algorithm_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["diam", "--algo", "nope", "--input", "x", "--k", "1"])

    @pytest.mark.parametrize("algo", ["naive", "explicit", "implicit"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_point_rejected(self, tmp_path, capsys, algo, bad):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0.0,0.0\n0.5,0.0\n{bad},0.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["diam", "--algo", algo, "--input", str(pts), "--k", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {pts}: line 3: coordinates must be finite"]

    @pytest.mark.parametrize("text", ["4 2\n0 1\n2 3\n", "", None])
    def test_bad_input_file_rejected(self, tmp_path, capsys, text):
        # disconnected edge list, empty file, missing file
        gf = tmp_path / "g.el"
        if text is not None:
            gf.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["diam", "--algo", "explicit", "--input", str(gf),
                  "--k", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {gf}: ")

    def test_disconnected_edge_list_names_path_once(self, tmp_path, capsys):
        gf = tmp_path / "disc.el"
        gf.write_text("4 2\n0 1\n2 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["diam", "--algo", "explicit", "--input", str(gf),
                  "--k", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {gf}: graph is disconnected"]

    @pytest.mark.parametrize("algo", ["naive", "explicit", "implicit"])
    @pytest.mark.parametrize("flags, message", [
        (["--k", "2", "--d", "1"], "d must be >= 2, got 1"),
        (["--k", "-1"], "{algo} algorithm needs k >= {k_min}")],
        ids=["d=1", "k=-1"])
    def test_bad_k_or_d_rejected(self, capsys, algo, flags, message):
        pts = Path(__file__).parent / "data" / "squares_small.csv"
        with pytest.raises(SystemExit) as exc:
            main(["diam", "--algo", algo, "--input", str(pts), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        k_min = 0 if algo == "naive" else 1
        assert err == ["error: " + message.format(algo=algo, k_min=k_min)]

    @pytest.mark.parametrize("flags, message", [
        (["--d", "1"], "d must be >= 2, got 1"),
        (["--k", "0"], "bench needs k >= 1")], ids=["d=1", "k=0"])
    def test_bench_bad_k_or_d_rejected(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "20,40", *flags])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.strip().splitlines() == ["error: " + message]

    @pytest.mark.parametrize("sides", ["5", "3", "2"])
    def test_bad_polygon_sides_rejected(self, tmp_path, capsys, sides):
        out = tmp_path / "pts.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "polygon-points", "--n", "12", "--sides", sides,
                  "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: --sides must be even and >= 4, got {sides}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["unit-squares", "--n", "0"], "--n must be >= 1, got 0"),
        (["sparse-graph", "--n", "5", "--m", "100"], "m must be in [4, 10]"),
        (["unit-squares", "--n", "10", "--box", "-2"],
         "--box must be finite and > 0, got -2.0"),
        (["unit-squares", "--n", "10", "--box", "nan"],
         "--box must be finite and > 0, got nan"),
        (["polygon-points", "--n", "5", "--radius", "0"],
         "--radius must be finite and > 0, got 0.0"),
        (["polygon-points", "--n", "60", "--box", "40"],
         "no connected instance in 200 tries (n=60, box=40.0); shrink the"
         " box"),
    ], ids=["n=0", "m=100", "box=-2", "box=nan", "radius=0", "no-connected-draw"])
    def test_bad_gen_arguments_rejected(self, tmp_path, capsys, argv,
                                        message):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gen", *argv, "--output", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == ["error: " + message]
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["naive", "explicit", "implicit"])
    def test_shape_with_two_vertices_rejected(self, tmp_path, capsys, algo):
        # unit segments 10 apart do not touch; no algorithm may answer
        pts, poly = tmp_path / "pts.csv", tmp_path / "seg.poly.csv"
        pts.write_text("0,0\n10,0\n20,0\n")
        poly.write_text("2\n0,0\n1,0\n")
        with pytest.raises(SystemExit) as exc:
            main(["diam", "--algo", algo, "--input", str(pts),
                  "--polygon", str(poly), "--k", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {pts}: a polygon needs at least 3 vertices"]

    def test_implicit_points_never_build_the_graph(self, tmp_path, capsys,
                                                   monkeypatch):
        # connectivity is checked on the structure the algorithm builds
        def refuse(*args):
            raise AssertionError("the oracle graph was built")

        monkeypatch.setattr(cli, "intersection_graph_naive", refuse)
        monkeypatch.setattr(geometry, "intersection_graph_naive", refuse)
        for text, code in (("0,0\n0.5,0.5\n1,1\n", 0), ("0,0\n5,5\n", 2)):
            pts = tmp_path / "pts.csv"
            pts.write_text(text)
            try:
                got = main(["diam", "--algo", "implicit", "--input", str(pts),
                            "--k", "2"])
            except SystemExit as exc:
                got = exc.code
            assert got == code
        out = capsys.readouterr()
        assert json.loads(out.out)["answer"] is True
        assert out.err.strip().splitlines() == \
            [f"error: {pts}: intersection graph is disconnected"]

    @pytest.mark.parametrize("algo", ["naive", "explicit", "implicit"])
    def test_disconnected_points_rejected(self, tmp_path, capsys, algo):
        # two unit squares far apart: infinite diameter under every algorithm
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n5,5\n")
        with pytest.raises(SystemExit) as exc:
            main(["diam", "--algo", algo, "--input", str(pts), "--k", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {pts}: intersection graph is disconnected"]
