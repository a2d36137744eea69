import argparse
import dataclasses
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import treeot as ot
from treeot import fileio
from treeot.annealing import AnnealConfig
from treeot.cli import _build_parser, export_dot, main
from treeot.oracle import geodesic_support_violation

from conftest import LINE6_XI, line6_edges, network_simplex_w1, run_python
from test_oracle import optimal_tree_corpus


def run_cli(*argv):
    return main(list(argv))


def refuse_everywhere(monkeypatch, func):
    """Make every binding of ``func`` in the treeot modules raise."""

    def refuse(*args):
        raise AssertionError(f"called {func.__name__}")

    bindings = [(module, attr) for name, module in list(sys.modules.items())
                if name == "treeot" or name.startswith("treeot.")
                for attr, value in list(vars(module).items()) if value is func]
    assert len(bindings) >= 2  # treeot and its defining module at least
    for module, attr in bindings:
        monkeypatch.setattr(module, attr, refuse)


class TestGrid:
    def test_uniform_2x2(self, tmp_path):
        out = tmp_path / "g"
        assert run_cli("grid", "--p", "2", "--out-dir", str(out)) == 0
        g = fileio.load_graph(out / "graph.json")
        assert g.n == 4 and g.edge_count == 4
        assert all(w == 0.25 for _, _, w in g.edges)
        mu = fileio.load_measure(out / "mu.json", 4)
        assert np.allclose(mu, 0.25)
        assert (out / "nu.json").exists() and (out / "grid.manifest.json").exists()

    def test_7x7_counts(self, tmp_path):
        out = tmp_path / "g"
        assert run_cli("grid", "--p", "7", "--out-dir", str(out)) == 0
        g = fileio.load_graph(out / "graph.json")
        assert g.n == 49 and g.edge_count == 84
        assert all(abs(w - 1 / 49) < 1e-15 for _, _, w in g.edges)

    def test_single_nonzero_pixel_gives_dirac(self, tmp_path):
        img = tmp_path / "img.csv"
        img.write_text("0,0,0\n0,5,0\n0,0,0\n", encoding="utf-8")
        out = tmp_path / "g"
        assert run_cli("grid", "--p", "3", "--image-csv", str(img), "--out-dir", str(out)) == 0
        mu = fileio.load_measure(out / "mu.json", 9)
        assert mu[4] == 1.0 and mu.sum() == 1.0

    def test_seeded_noise_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("grid", "--p", "3", "--noise-sigma", "1e-3",
                           "--seed", "5", "--out-dir", str(out)) == 0
        assert (a / "mu.json").read_bytes() == (b / "mu.json").read_bytes()
        assert (a / "nu.json").read_bytes() == (b / "nu.json").read_bytes()
        mu = fileio.load_measure(a / "mu.json", 9)
        nu = fileio.load_measure(a / "nu.json", 9)
        assert ot.check_weak_nondegeneracy(mu, nu, ot.grid_graph(3))

    @pytest.mark.filterwarnings("error")  # the overflowing sum once warned on stderr
    @pytest.mark.parametrize("pixels", ["noise", "image"])
    def test_pixels_whose_sum_overflows_normalize(self, tmp_path, pixels):
        # the measure was once all zeros, written with exit 0
        img = tmp_path / "img.csv"
        img.write_text("1e308,1e308\n1e308,1e308\n", encoding="utf-8")
        argv = ["--noise-sigma", "1e308"] if pixels == "noise" else ["--image-csv", str(img)]
        out = tmp_path / "g"
        assert run_cli("grid", "--p", "2", *argv, "--out-dir", str(out)) == 0
        mu = fileio.load_measure(out / "mu.json", 4)
        assert mu.min() > 0.0 and (pixels == "noise" or mu.tolist() == [0.25] * 4)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # SeedSequence's ValueError once escaped as a traceback, exit 1
        assert run_cli("grid", "--p", "2", "--seed", "-1", "--out-dir", str(tmp_path / "g")) == 2
        assert capsys.readouterr().err.splitlines() == ["error: --seed must be non-negative, not -1"]
        assert not (tmp_path / "g").exists()

    def test_bad_image_dimensions_exit_2(self, tmp_path, capsys):
        img = tmp_path / "img.csv"
        img.write_text("1,2\n", encoding="utf-8")
        assert run_cli("grid", "--p", "2", "--image-csv", str(img),
                       "--out-dir", str(tmp_path / "g")) == 2
        img.write_text("1,2\n3\n", encoding="utf-8")  # ragged rows
        assert run_cli("grid", "--p", "2", "--image-csv", str(img),
                       "--out-dir", str(tmp_path / "g")) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {img}: expected 2x2, got 2 rows of [1, 2] values")


class TestParserReuse:
    """``main`` builds its parser once per process; later calls must act as
    they would in a fresh process."""

    def test_calls_share_one_parser(self):
        assert _build_parser() is _build_parser()

    def test_image_files_do_not_leak_into_the_next_call(self, tmp_path):
        for name, text in (("mu.csv", "1,0\n0,0\n"), ("nu.csv", "0,0\n0,3\n")):
            (tmp_path / name).write_text(text, encoding="utf-8")
        images = ["--image-csv", str(tmp_path / "mu.csv"), "--image-csv", str(tmp_path / "nu.csv")]
        assert run_cli("grid", "--p", "2", *images, "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli("grid", "--p", "2", "--out-dir", str(tmp_path / "b")) == 0
        fresh = tmp_path / "fresh"
        argv = ["grid", "--p", "2", "--out-dir", str(fresh)]
        proc = run_python(f"import sys; from treeot.cli import main; sys.exit(main({argv!r}))")
        assert proc.returncode == 0, proc.stderr
        for name in ("graph.json", "mu.json", "nu.json"):
            assert (tmp_path / "b" / name).read_bytes() == (fresh / name).read_bytes()
        manifest = json.loads((tmp_path / "b" / "grid.manifest.json").read_text())
        assert manifest["inputs"] == {"image_csv": []}
        assert fileio.load_measure(tmp_path / "a" / "mu.json", 4).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_bad_arguments_then_good_ones(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--p", "two", "--out-dir", str(tmp_path / "a")])
        assert exc.value.code == 2
        assert run_cli("grid", "--p", "2", "--out-dir", str(tmp_path / "b")) == 0
        assert (tmp_path / "b" / "mu.json").exists() and not (tmp_path / "a").exists()


def test_readme_names_every_flag_and_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for sub in commands.choices.values() for action in sub._actions
             for flag in action.option_strings if flag not in ("-h", "--help")}
    keys = {f.name for f in dataclasses.fields(AnnealConfig)}
    missing = sorted(name for name in flags | keys
                     if not re.search(rf"(?<![\w-]){name}(?![\w-])", readme))
    assert not missing, missing


class TestAnnealCommand:
    def test_tree_graph_constant_trace(self, tmp_path, capsys):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_measure(tmp_path / "mu.json", [0.6, 0.2, 0.2])
        fileio.save_measure(tmp_path / "nu.json", [0.2, 0.2, 0.6])
        out = tmp_path / "run"
        code = run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--iters", "500", "--seed", "3", "--out-dir", str(out),
        )
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        t = fileio.load_tree(out / "best_tree.json", g)
        assert abs(printed - ot.tree_k_distance(t, [0.6, 0.2, 0.2], [0.2, 0.2, 0.6])) <= 1e-12
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,current_cost,best_cost,beta,accept_rate"
        best_col = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert all(abs(b - best_col[0]) <= 1e-15 for b in best_col)

    @pytest.mark.parametrize("graph, mu, nu, extra, stop, iters", [
        # the only spanning tree is optimal and certified before any step
        (ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]), [0.6, 0.2, 0.2], [0.2, 0.2, 0.6], [],
         "certified", 0),
        # mu == nu: the initial tree fails the check, and no tree costs less
        (ot.grid_graph(3), [1 / 9] * 9, [1 / 9] * 9, [], "max_iters", 400),
        (ot.grid_graph(3), [1 / 9] * 9, [1 / 9] * 9, ["--target-cost", "0.5"], "target", 0),
    ], ids=["certified", "max_iters", "target"])
    def test_manifest_records_why_the_run_stopped(self, tmp_path, capsys, graph, mu, nu, extra,
                                                   stop, iters):
        fileio.save_graph(tmp_path / "graph.json", graph)
        fileio.save_measure(tmp_path / "mu.json", mu)
        fileio.save_measure(tmp_path / "nu.json", nu)
        out = tmp_path / "run"
        assert run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--iters", "400", "--record-every", "100", "--seed", "0", *extra,
            "--out-dir", str(out),
        ) == 0
        manifest = json.loads((out / "anneal.manifest.json").read_text())
        assert (manifest["stop_reason"], manifest["iters_run"]) == (stop, iters)
        assert manifest["config"]["max_iters"] == 400
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert int(rows[-1].split(",")[0]) == iters and len(rows) == iters // 100 + 1
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1 and float(printed[0]) == float(rows[-1].split(",")[2])

    def test_missing_measure_file_exit_2(self, tmp_path, capsys):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_measure(tmp_path / "mu.json", [0.5, 0.5])
        code = run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "absent.json"),
            "--iters", "10", "--out-dir", str(tmp_path / "run"),
        )
        assert code == 2
        assert capsys.readouterr().err.strip()

    def test_nan_measure_exit_2(self, tmp_path, capsys):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_measure(tmp_path / "mu.json", [float("nan"), 1.0])
        fileio.save_measure(tmp_path / "nu.json", [0.5, 0.5])
        code = run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--iters", "10", "--out-dir", str(tmp_path / "run"),
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "NaN or infinite" in captured.err

    def test_config_file_with_flag_override(self, tmp_path):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_measure(tmp_path / "mu.json", [0.6, 0.4])
        fileio.save_measure(tmp_path / "nu.json", [0.4, 0.6])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 50, "seed": 9, "beta0": 0.5}), encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--config", str(cfg), "--iters", "20", "--out-dir", str(out),
        ) == 0
        manifest = json.loads((out / "anneal.manifest.json").read_text())
        assert manifest["config"]["max_iters"] == 20  # flag beats file
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["beta0"] == 0.5

    def test_flagless_run_records_the_default_config(self, tmp_path):
        fileio.save_graph(tmp_path / "graph.json", ot.build_graph(1, []))
        fileio.save_measure(tmp_path / "mu.json", [1.0])
        fileio.save_measure(tmp_path / "nu.json", [1.0])
        out = tmp_path / "run"
        assert run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--out-dir", str(out),
        ) == 0
        manifest = json.loads((out / "anneal.manifest.json").read_text())
        assert manifest["config"] == {
            "max_iters": 100_000, "seed": 0, "beta0": 3.0, "eta": 0.002, "record_every": 1000,
            "chains": 1, "target_cost": None,
        }

    def test_multiple_chains(self, tmp_path, capsys):
        g = ot.grid_graph(3)
        fileio.save_graph(tmp_path / "graph.json", g)
        rng = np.random.default_rng(22)
        mu = rng.random(9) + 0.01
        nu = rng.random(9) + 0.01
        fileio.save_measure(tmp_path / "mu.json", mu / mu.sum())
        fileio.save_measure(tmp_path / "nu.json", nu / nu.sum())
        out = tmp_path / "run"
        assert run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--iters", "2000", "--seed", "4", "--chains", "3", "--out-dir", str(out),
        ) == 0
        best = float(capsys.readouterr().out.strip())
        t = fileio.load_tree(out / "best_tree.json", g)
        assert abs(ot.tree_k_distance(t, fileio.load_measure(tmp_path / "mu.json", 9),
                                      fileio.load_measure(tmp_path / "nu.json", 9)) - best) <= 1e-9

    def test_unknown_config_key_exit_2(self, tmp_path):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_measure(tmp_path / "mu.json", [0.6, 0.4])
        fileio.save_measure(tmp_path / "nu.json", [0.4, 0.6])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cooling": "linear"}), encoding="utf-8")
        assert run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
        ) == 2


class TestMalformedFiles:
    @pytest.mark.parametrize("doc", [
        {"n": 2, "edges": [[0, 1]]},
        {"n": 2, "edges": [[0, 1, 1.0, 3]]},
        {"n": 2, "edges": [[0, 1, "heavy"]]},
        {"n": 2.5, "edges": [[0, 1, 1.0]]},
        {"n": "2", "edges": [[0, 1, 1.0]]},
        {"n": 2, "edges": 5},
        {"n": 2, "edges": [[0, "x", 1.0]]},
    ], ids=["no-weight", "four-fields", "string-weight", "float-n", "string-n",
            "edges-not-list", "string-endpoint"])
    def test_bad_graph_exit_2(self, tmp_path, capsys, doc):
        (tmp_path / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
        fileio.save_measure(tmp_path / "mu.json", [0.6, 0.4])
        fileio.save_measure(tmp_path / "nu.json", [0.4, 0.6])
        code = run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--iters", "10", "--out-dir", str(tmp_path / "run"),
        )
        assert code == 2
        assert "graph.json" in capsys.readouterr().err

    # JSON integers past float64 (the weights, the masses) or int64 (n); of
    # several bad rows the first names the error, whatever n
    @pytest.mark.parametrize("name, doc, error", [
        ("mu.json", [10**400, 1], "{d}/mu.json: measure has a NaN or infinite entry"),
        ("graph.json", {"n": 2, "edges": [[0, 1, 10**400]]}, "{d}/graph.json: edge (0,1) has weight inf"),
        ("graph.json", {"n": 2, "edges": [[0, 1, -10**400], [0, 0, 1.0]]},
         "{d}/graph.json: edge (0,1) has weight -inf"),
        ("graph.json", {"n": 10**29, "edges": [[0, 1, 1.0]]}, "{d}/graph.json: graph is not connected"),
        ("graph.json", {"n": 10**29, "edges": [[0, 1, 1.0], [1, 1, 1.0], [0, 1, 0.0]]},
         "{d}/graph.json: self-loop at vertex 1"),
        ("graph.json", {"n": 10**29, "edges": [[0, 1, 1.0], [1, 0, 2.0]]},
         "{d}/graph.json: duplicate edge {1,0}"),
    ], ids=["huge-mass", "huge-weight", "huge-negative-weight", "huge-n", "huge-n-self-loop",
            "huge-n-duplicate"])
    def test_numbers_past_float64_or_int64_exit_2(self, tmp_path, capsys, name, doc, error):
        fileio.save_graph(tmp_path / "graph.json", ot.build_graph(2, [(0, 1, 1.0)]))
        fileio.save_measure(tmp_path / "mu.json", [0.6, 0.4])
        fileio.save_measure(tmp_path / "nu.json", [0.4, 0.6])
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli(
            "anneal", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--iters", "10", "--out-dir", str(tmp_path / "run"),
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {error.replace('{d}', str(tmp_path))}"]

    @pytest.mark.parametrize("doc", [
        {"root": 0, "edges": [[0, 1, 5]]},
        {"root": 0, "edges": [[0]]},
        {"root": "x", "edges": [[0, 1]]},
        {"root": 0.0, "edges": [[0, 1]]},
        {"root": 0, "edges": 5},
        {"root": 0, "edges": [[0, 1.5]]},
    ], ids=["three-fields", "one-field", "string-root", "float-root", "edges-not-list",
            "float-endpoint"])
    def test_bad_tree_exit_2(self, tmp_path, capsys, doc):
        fileio.save_graph(tmp_path / "graph.json", ot.build_graph(2, [(0, 1, 1.0)]))
        (tmp_path / "tree.json").write_text(json.dumps(doc), encoding="utf-8")
        fileio.save_measure(tmp_path / "mu.json", [0.6, 0.4])
        fileio.save_measure(tmp_path / "nu.json", [0.4, 0.6])
        code = run_cli(
            "plan", "--graph", str(tmp_path / "graph.json"), "--tree", str(tmp_path / "tree.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--out-dir", str(tmp_path / "run"),
        )
        assert code == 2
        assert "tree.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["anneal", "verify"])
    @pytest.mark.parametrize("entries", [
        ["x", 0.5, 0.5],
        [[0.5], 0.25, 0.25],
        [True, 0.0, 0.0],
    ], ids=["string", "nested-list", "bool"])
    def test_non_number_measure_exit_2(self, tmp_path, capsys, command, entries):
        fileio.save_graph(tmp_path / "graph.json", ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        (tmp_path / "mu.json").write_text(json.dumps(entries), encoding="utf-8")
        fileio.save_measure(tmp_path / "nu.json", [0.2, 0.2, 0.6])
        args = ["--graph", str(tmp_path / "graph.json"),
                "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json")]
        if command == "anneal":
            args += ["--iters", "10", "--out-dir", str(tmp_path / "run")]
        code = run_cli(command, *args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "mu.json: measure entries must be real numbers, not" in captured.err


@pytest.fixture
def line6_files(tmp_path):
    g = ot.build_graph(6, [(i, i + 1, 1.0) for i in range(5)])
    mu = np.full(6, 1 / 6) + LINE6_XI / 2
    nu = np.full(6, 1 / 6) - LINE6_XI / 2
    fileio.save_graph(tmp_path / "graph.json", g)
    fileio.save_measure(tmp_path / "mu.json", mu)
    fileio.save_measure(tmp_path / "nu.json", nu)
    t = ot.root_tree(g, line6_edges(), 5)
    fileio.save_tree(tmp_path / "tree.json", t)
    return tmp_path


def annealed_4x4_verify(d) -> list[str]:
    """Run grid, anneal, plan and potential on a noisy 4x4 lattice into
    ``d``; return the argv of ``verify`` on every output."""
    files = ["--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")]
    tree = ["--tree", str(d / "best_tree.json")]
    assert run_cli("grid", "--p", "4", "--noise-sigma", "1e-3", "--seed", "2", "--out-dir", str(d)) == 0
    assert run_cli("anneal", *files, "--iters", "3000", "--seed", "2", "--out-dir", str(d)) == 0
    assert run_cli("plan", *files, *tree, "--out-dir", str(d)) == 0
    assert run_cli("potential", *files, *tree, "--out-dir", str(d)) == 0
    return ["verify", *files, *tree, "--plan", str(d / "plan.csv"),
            "--potential", str(d / "potential.csv")]


BAD_ARGUMENTS = [
    ("grid", "--noise-sigma", "abc"),
    ("grid", "--noise-sigma", "nan"),
    ("grid", "--noise-sigma", "-1"),
    ("anneal", "--iters", "-5"),
    ("anneal", "--seed", "-3"),
    ("anneal", "--record-every", "0"),
    ("anneal", "--beta0", "nan"),
    ("anneal", "--beta0", "0"),
    ("anneal", "--eta", "nan"),
    ("anneal", "--eta", "0"),
    ("anneal", "--eta", "-1"),
    ("anneal", "--eta", "inf"),
    ("anneal", "--chains", "0"),
    ("anneal", "--config", '{"eta": "abc"}'),
    ("anneal", "--config", '{"seed": "abc"}'),
    # past int64 or float64, which the kernel takes; the first ran 5 proposals on c
    ("anneal", "--iters", str(2**64 + 5)),
    ("anneal", "--record-every", str(2**64)),
    pytest.param("anneal", "--config", '{"beta0": 1%s}' % ("0" * 400), id="beta0-beyond-float"),
    ("anneal", "--config", '{"eta": true}'),
]


@pytest.mark.parametrize("command, flag, value", BAD_ARGUMENTS)
def test_bad_argument_exits_2(line6_files, capsys, command, flag, value):
    d = line6_files
    if flag == "--config":
        (d / "cfg.json").write_text(value, encoding="utf-8")
        value = str(d / "cfg.json")
    argv = [command, flag, value, "--out-dir", str(d / "run")]
    if command == "grid":
        argv += ["--p", "2"]
    else:
        argv += ["--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"),
                 "--nu", str(d / "nu.json")]
        if flag != "--iters":
            argv += ["--iters", "10"]
    assert run_cli(*argv) == 2  # an exception escaping main would be a traceback
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert not (d / "run").exists()


def test_a_trace_too_long_to_allocate_exits_2(line6_files, capsys):
    # 2**63 + 1 rows: numpy refuses the shape before it allocates, and no chain runs
    d = line6_files
    assert run_cli("anneal", "--iters", str(2**63 - 1), "--record-every", "1",
                   "--out-dir", str(d / "run"), "--graph", str(d / "graph.json"),
                   "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (d / "run").exists()
    assert captured.err.splitlines() == [
        f"error: a trace of {2**63 + 1} rows cannot be allocated: lower max_iters (--iters) or "
        "raise record_every (--record-every)"]


#: a refused run of each writing command: what it is missing or given wrongly
REFUSED_RUNS = {
    "grid": ["--p", "1"],
    "anneal": ["--mu", "bad_mu.json", "--nu", "nu.json", "--iters", "10"],
    "plan": ["--tree", "tree.json", "--mu", "bad_mu.json", "--nu", "nu.json"],
    "potential": ["--tree", "tree.json", "--mu", "mu.json", "--nu", "bad_mu.json"],
}


@pytest.mark.parametrize("command", REFUSED_RUNS)
def test_a_refused_command_creates_no_out_dir(line6_files, capsys, command):
    d = line6_files
    (d / "bad_mu.json").write_text("[0.5, -0.2, 0.7, 0.0, 0.0, 0.0]\n", encoding="utf-8")
    argv = [str(d / a) if a.endswith(".json") else a for a in REFUSED_RUNS[command]]
    if command != "grid":
        argv += ["--graph", str(d / "graph.json")]
    assert run_cli(command, *argv, "--out-dir", str(d / "out" / "x")) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (d / "out").exists()


@pytest.mark.parametrize("chains", ["1", "2"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_target_cost_exits_2(line6_files, capsys, value, chains):
    d = line6_files
    assert run_cli("anneal", f"--target-cost={value}", "--chains", chains, "--iters", "10",
                   "--out-dir", str(d / "run"), "--graph", str(d / "graph.json"),
                   "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (d / "run" / "best_tree.json").exists()
    assert captured.err.splitlines() == [
        f"error: --target-cost must be a finite number, not {float(value)!r}"]


@pytest.mark.parametrize("value", ["true", "1.5"])
@pytest.mark.parametrize("field", ["max_iters", "seed", "record_every"])
def test_non_integer_config_field_exits_2(line6_files, capsys, field, value):
    d = line6_files
    (d / "cfg.json").write_text(f'{{"{field}": {value}}}', encoding="utf-8")
    argv = ["anneal", "--config", str(d / "cfg.json"), "--out-dir", str(d / "run"),
            "--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")]
    if field != "max_iters":
        argv += ["--iters", "10"]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: bad annealing config: {field} must be an integer, not {json.loads(value)!r}"]


def test_config_with_recompute_every_exits_2(line6_files, capsys):
    # the refresh interval is the kernels' constant, no longer a config key
    d = line6_files
    (d / "cfg.json").write_text('{"recompute_every": 100000}', encoding="utf-8")
    assert run_cli("anneal", "--config", str(d / "cfg.json"), "--iters", "10",
                   "--out-dir", str(d / "run"), "--graph", str(d / "graph.json"),
                   "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (d / "run").exists()
    assert captured.err.splitlines() == ["error: unknown config keys: ['recompute_every']"]


@pytest.mark.parametrize("key", ["target_accept", "window"])
def test_config_with_a_knob_of_the_old_temperature_rule_exits_2(line6_files, capsys, key):
    d = line6_files
    (d / "cfg.json").write_text(f'{{"{key}": 100}}', encoding="utf-8")
    assert run_cli("anneal", "--config", str(d / "cfg.json"), "--iters", "10",
                   "--out-dir", str(d / "run"), "--graph", str(d / "graph.json"),
                   "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (d / "run").exists()
    assert captured.err.splitlines() == [f"error: unknown config keys: ['{key}']"]


@pytest.mark.parametrize("text", ["5", "null", '["max_iters"]', '[["max_iters", 10]]'])
def test_config_that_is_not_an_object_exits_2(line6_files, capsys, text):
    d = line6_files
    (d / "cfg.json").write_text(text, encoding="utf-8")
    assert run_cli("anneal", "--config", str(d / "cfg.json"), "--out-dir", str(d / "run"),
                   "--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"),
                   "--nu", str(d / "nu.json")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {d / 'cfg.json'}: expected a JSON object of annealing settings"]


class TestPlanPotentialCommands:
    def test_plan_on_a_missing_backend_exits_2(self, line6_files):
        argv = ["plan", "--graph", str(line6_files / "graph.json"),
                "--tree", str(line6_files / "tree.json"),
                "--mu", str(line6_files / "mu.json"), "--nu", str(line6_files / "nu.json"),
                "--out-dir", str(line6_files / "p")]
        proc = run_python(f"import sys; from treeot.cli import main; sys.exit(main({argv!r}))", "c",
                          PATH=str(line6_files / "empty-bin"), CC="")
        assert proc.returncode == 2
        assert "TREEOT_BACKEND=c: no C compiler found" in proc.stderr

    def test_plan_outputs(self, line6_files, capsys):
        out = line6_files / "plan_out"
        code = run_cli(
            "plan", "--graph", str(line6_files / "graph.json"),
            "--tree", str(line6_files / "tree.json"),
            "--mu", str(line6_files / "mu.json"), "--nu", str(line6_files / "nu.json"),
            "--out-dir", str(out),
        )
        assert code == 0
        assert abs(float(capsys.readouterr().out.strip()) - 0.75) <= 1e-12
        triplets = fileio.load_plan_triplets(out / "plan.csv")
        g = fileio.load_graph(line6_files / "graph.json")
        plan = ot.make_plan(6, triplets)
        mu = fileio.load_measure(line6_files / "mu.json", 6)
        assert np.max(np.abs(plan.row_sums() - mu)) <= 1e-9
        flow_lines = (out / "flow.csv").read_text().splitlines()
        assert flow_lines[0] == "vertex,parent,up,down"
        assert len(flow_lines) == 6  # header + 5 non-root vertices
        xi_lines = (out / "xi.csv").read_text().splitlines()
        assert xi_lines[0] == "vertex,xi_cum"

    def test_potential_on_line6_prints_no_warning(self, line6_files, capsys):
        # line6 fails the paper's weak non-degeneracy, yet every edge of its
        # tree carries flow, so the certified potential is the only dual
        out = line6_files / "pot_out"
        code = run_cli(
            "potential", "--graph", str(line6_files / "graph.json"),
            "--tree", str(line6_files / "tree.json"),
            "--mu", str(line6_files / "mu.json"), "--nu", str(line6_files / "nu.json"),
            "--out-dir", str(out),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        u = fileio.load_potential(out / "potential.csv", 6)
        assert np.allclose(u.values, [-1, -2, -3, -2, -1, 0])
        manifest = json.loads((out / "potential.manifest.json").read_text())
        assert manifest["dual_unique"] is True
        assert manifest["config"] == {}

    def test_potential_warns_on_degenerate(self, tmp_path, capsys):
        # with mu == nu no edge carries flow, and every 1-Lipschitz potential
        # is optimal; on the 3x3 lattice the tree formula exceeds an edge by
        # 2w with either sign at 0, so the written potential is the face's
        g = ot.grid_graph(3)
        t = ot.random_spanning_tree(g, np.random.default_rng(0))
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_tree(tmp_path / "tree.json", t)
        fileio.save_measure(tmp_path / "flat.json", [1 / 9] * 9)
        files = ["--graph", str(tmp_path / "graph.json"), "--tree", str(tmp_path / "tree.json"),
                 "--mu", str(tmp_path / "flat.json"), "--nu", str(tmp_path / "flat.json")]
        assert run_cli("potential", *files, "--out-dir", str(tmp_path / "u")) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: the potential is not unique\n"
        assert float(captured.out) == 0.0
        manifest = json.loads((tmp_path / "u" / "potential.manifest.json").read_text())
        assert manifest["dual_unique"] is False
        u = fileio.load_potential(tmp_path / "u" / "potential.csv", 9)
        assert ot.lipschitz_violation(u, g) <= 1e-12 * g.weights.max()
        assert run_cli("verify", *files, "--potential", str(tmp_path / "u" / "potential.csv")) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["dual_unique"] == {"value": False, "reason": None}

    def test_potential_warns_on_an_uncertified_tree(self, tmp_path, capsys):
        # on the 4-cycle the path 1-2-3-0 carries mass from 0 to 1 the long way
        fileio.save_graph(tmp_path / "graph.json",
                          ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]))
        fileio.save_tree(tmp_path / "tree.json",
                         ot.root_tree(fileio.load_graph(tmp_path / "graph.json"),
                                      [(1, 2), (2, 3), (3, 0)], 0))
        fileio.save_measure(tmp_path / "mu.json", [1.0, 0.0, 0.0, 0.0])
        fileio.save_measure(tmp_path / "nu.json", [0.0, 1.0, 0.0, 0.0])
        files = ["--graph", str(tmp_path / "graph.json"), "--tree", str(tmp_path / "tree.json"),
                 "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json")]
        assert run_cli("potential", *files, "--out-dir", str(tmp_path / "u")) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: the tree is not certified optimal; no claim on the dual\n"
        manifest = json.loads((tmp_path / "u" / "potential.manifest.json").read_text())
        assert manifest["dual_unique"] is None
        # the tree formula, sign +1 where the cumulative imbalance is 0
        g = fileio.load_graph(tmp_path / "graph.json")
        t = fileio.load_tree(tmp_path / "tree.json", g)
        assert ot.certified_dual(g, t, [1.0, 0, 0, 0], [0, 1.0, 0, 0]) is None
        assert np.array_equal(fileio.load_potential(tmp_path / "u" / "potential.csv", 4).values,
                              ot.tree_potential(t, [1.0, 0, 0, 0], [0, 1.0, 0, 0]).values)
        assert run_cli("verify", *files, "--potential", str(tmp_path / "u" / "potential.csv"),
                       "--exact") == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["dual_unique"] == {"value": None, "reason": "the tree is not certified optimal"}
        assert "potential_matches_exact_dual" not in {c["name"] for c in verdict["checks"]}


class TestSharedOutDir:
    def test_every_command_keeps_its_manifest(self, tmp_path, capsys):
        d = tmp_path
        files = ["--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")]
        tree = ["--tree", str(d / "best_tree.json")]
        assert run_cli("grid", "--p", "4", "--noise-sigma", "1e-3", "--seed", "2", "--out-dir", str(d)) == 0
        assert run_cli("anneal", *files, "--iters", "3000", "--seed", "2", "--out-dir", str(d)) == 0
        assert run_cli("plan", *files, *tree, "--out-dir", str(d)) == 0
        assert run_cli("potential", *files, *tree, "--out-dir", str(d)) == 0
        capsys.readouterr()
        for command in ("grid", "anneal", "plan", "potential"):
            manifest = json.loads((d / f"{command}.manifest.json").read_text())
            assert manifest["command"] == command
        anneal = json.loads((d / "anneal.manifest.json").read_text())
        assert anneal["stop_reason"] in ("max_iters", "target", "certified")
        assert 0 <= anneal["iters_run"] <= 3000
        assert not (d / "manifest.json").exists()


    def test_every_manifest_records_the_kernel_backend(self, tmp_path, capsys, backend):
        d = tmp_path
        files = ["--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")]
        tree = ["--tree", str(d / "best_tree.json")]
        assert run_cli("grid", "--p", "3", "--seed", "1", "--out-dir", str(d)) == 0
        assert run_cli("anneal", *files, "--iters", "100", "--out-dir", str(d)) == 0
        assert run_cli("plan", *files, *tree, "--out-dir", str(d)) == 0
        assert run_cli("potential", *files, *tree, "--out-dir", str(d)) == 0
        capsys.readouterr()
        manifests = sorted(d.glob("*.manifest.json"))
        assert [m.name.split(".")[0] for m in manifests] == ["anneal", "grid", "plan", "potential"]
        for m in manifests:
            assert json.loads(m.read_text())["kernel_backend"] == backend


class TestVerifyCommand:
    def test_self_consistent_pipeline_passes(self, line6_files, capsys):
        run_cli(
            "plan", "--graph", str(line6_files / "graph.json"),
            "--tree", str(line6_files / "tree.json"),
            "--mu", str(line6_files / "mu.json"), "--nu", str(line6_files / "nu.json"),
            "--out-dir", str(line6_files / "p"),
        )
        run_cli(
            "potential", "--graph", str(line6_files / "graph.json"),
            "--tree", str(line6_files / "tree.json"),
            "--mu", str(line6_files / "mu.json"), "--nu", str(line6_files / "nu.json"),
            "--out-dir", str(line6_files / "u"),
        )
        capsys.readouterr()
        code = run_cli(
            "verify", "--graph", str(line6_files / "graph.json"),
            "--mu", str(line6_files / "mu.json"), "--nu", str(line6_files / "nu.json"),
            "--tree", str(line6_files / "tree.json"),
            "--plan", str(line6_files / "p" / "plan.csv"),
            "--potential", str(line6_files / "u" / "potential.csv"),
            "--exact",
        )
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict["all_passed"]
        assert abs(verdict["metrics"]["exact_value"] - 0.75) <= 1e-9
        g = fileio.load_graph(line6_files / "graph.json")
        mu = fileio.load_measure(line6_files / "mu.json", 6)
        nu = fileio.load_measure(line6_files / "nu.json", 6)
        assert verdict["metrics"]["exact_pivots"] == ot.solve(g, mu, nu).pivots > 0
        # the paper's condition fails on line6, yet the dual is unique
        assert not ot.check_weak_nondegeneracy(mu, nu, g)
        assert verdict["dual_unique"] == {"value": True, "reason": None}
        named = {c["name"]: c for c in verdict["checks"]}
        assert named["potential_matches_exact_dual"]["passed"]

    def test_line6_dual_is_unique_though_degenerate(self, line6_files, capsys):
        files = ["--graph", str(line6_files / "graph.json"), "--tree", str(line6_files / "tree.json"),
                 "--mu", str(line6_files / "mu.json"), "--nu", str(line6_files / "nu.json")]
        assert run_cli("potential", *files, "--out-dir", str(line6_files / "u")) == 0
        assert capsys.readouterr().err == ""
        code = run_cli("verify", *files, "--potential", str(line6_files / "u" / "potential.csv"),
                       "--exact")
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict["dual_unique"] == {"value": True, "reason": None}
        named = {c["name"]: c for c in verdict["checks"]}
        assert named["potential_matches_exact_dual"]["passed"]

    def test_without_a_tree_the_dual_is_not_compared(self, line6_files, capsys):
        d = line6_files
        files = ["--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")]
        assert run_cli("potential", *files, "--tree", str(d / "tree.json"), "--out-dir", str(d / "u")) == 0
        capsys.readouterr()
        assert run_cli("verify", *files, "--potential", str(d / "u" / "potential.csv"), "--exact") == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["dual_unique"] == {"value": None, "reason": "no --tree given"}
        names = {c["name"] for c in verdict["checks"]}
        assert "potential_duality_exact" in names and "potential_matches_exact_dual" not in names

    def test_the_verdict_is_certified_where_the_tree_formula_fails(self, tmp_path, capsys):
        # the corpus trees are optimal, so verify certifies one whose tree
        # formula is not 1-Lipschitz
        g, t, mu, nu = next(case for case in optimal_tree_corpus()
                            if ot.lipschitz_violation(ot.tree_potential(*case[1:]), case[0]) > 1e-9)
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_tree(tmp_path / "tree.json", t)
        fileio.save_measure(tmp_path / "mu.json", mu)
        fileio.save_measure(tmp_path / "nu.json", nu)
        run_cli("verify", *(f"--{name}={tmp_path / name}.json" for name in ("graph", "tree", "mu", "nu")))
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["dual_unique"] == {"value": ot.certified_dual(g, t, mu, nu)[1], "reason": None}

    def test_tree_checks_build_no_dense_tree_matrix(self, tmp_path, capsys, monkeypatch):
        argv = annealed_4x4_verify(tmp_path)
        capsys.readouterr()
        code = run_cli(*argv)
        plain = json.loads(capsys.readouterr().out)

        refuse_everywhere(monkeypatch, ot.tree_distance_matrix)
        assert run_cli(*argv) == code
        patched = json.loads(capsys.readouterr().out)
        verdicts = [(c["name"], c["passed"]) for c in plain["checks"]]
        assert [(c["name"], c["passed"]) for c in patched["checks"]] == verdicts
        assert patched["all_passed"] == plain["all_passed"]
        assert {"plan_cost_tree_matches_tree_cost", "plan_geodesic_support",
                "flow_matches_cumulative", "complementary_slackness"} <= dict(verdicts).keys()

    def test_plan_less_verify_builds_no_floyd_warshall(self, line6_files, capsys, monkeypatch):
        d = line6_files
        files = ["--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"),
                 "--nu", str(d / "nu.json"), "--tree", str(d / "tree.json")]
        assert run_cli("potential", *files, "--out-dir", str(d / "u")) == 0
        argv = ["verify", *files, "--potential", str(d / "u" / "potential.csv")]
        capsys.readouterr()
        code = run_cli(*argv)
        plain = json.loads(capsys.readouterr().out)
        refuse_everywhere(monkeypatch, ot.all_pairs_shortest_paths)
        assert run_cli(*argv) == code
        assert json.loads(capsys.readouterr().out) == plain
        assert {"potential_lipschitz", "potential_duality_tree"} <= {c["name"] for c in plain["checks"]}

    def test_full_verify_builds_no_dense_matrix(self, tmp_path, capsys, monkeypatch):
        # verify reads graph distances at the plan's support pairs and solves
        # on the graph's arcs; its figures match the dense matrix's
        argv = [*annealed_4x4_verify(tmp_path), "--exact"]
        capsys.readouterr()
        code = run_cli(*argv)
        plain = json.loads(capsys.readouterr().out)
        for func in (ot.all_pairs_shortest_paths, ot.exact_k_distance, ot.tree_distance_matrix):
            refuse_everywhere(monkeypatch, func)
        assert run_cli(*argv) == code
        patched = json.loads(capsys.readouterr().out)
        assert patched == plain
        monkeypatch.undo()

        g = fileio.load_graph(tmp_path / "graph.json")
        mu = fileio.load_measure(tmp_path / "mu.json", g.n)
        nu = fileio.load_measure(tmp_path / "nu.json", g.n)
        t = fileio.load_tree(tmp_path / "best_tree.json", g)
        plan = ot.make_plan(g.n, fileio.load_plan_triplets(tmp_path / "plan.csv"))
        dist = ot.all_pairs_shortest_paths(g)
        exact = ot.exact_k_distance(dist, mu, nu).value
        metrics = patched["metrics"]
        named = {c["name"]: c for c in patched["checks"]}
        assert abs(metrics["exact_value"] - exact) <= 1e-12
        assert abs(metrics["tree_gap_vs_exact"] - (metrics["tree_cost"] - exact)) <= 1e-12
        assert abs(metrics["plan_cost_graph"] - ot.plan_cost(plan, dist)) <= 1e-12
        assert abs(named["plan_geodesic_support"]["violation"]
                   - geodesic_support_violation(plan, dist, t)) <= 1e-12
        assert {"plan_cyclically_monotone", "plan_cost_matches_exact", "complementary_slackness",
                "potential_duality_exact", "tree_cost_matches_exact"} <= named.keys()

    def test_exact_verify_at_1024_vertices_stays_small(self, tmp_path, capsys):
        pytest.importorskip("networkx")
        d = tmp_path
        files = ["--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")]
        tree = ["--tree", str(d / "tree.json")]
        assert run_cli("grid", "--p", "32", "--noise-sigma", "auto", "--seed", "1", "--out-dir", str(d)) == 0
        g = fileio.load_graph(d / "graph.json")
        fileio.save_tree(d / "tree.json", ot.random_spanning_tree(g, np.random.default_rng(1)))
        assert run_cli("plan", *files, *tree, "--out-dir", str(d)) == 0
        assert run_cli("potential", *files, *tree, "--out-dir", str(d)) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = run_cli("verify", *files, *tree, "--plan", str(d / "plan.csv"),
                           "--potential", str(d / "potential.csv"), "--exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        verdict = json.loads(capsys.readouterr().out)
        assert code in (0, 3)
        assert peak < 2 * 2**20  # the 1024 x 1024 distance matrix alone takes 8 MiB
        mu = fileio.load_measure(d / "mu.json", g.n)
        nu = fileio.load_measure(d / "nu.json", g.n)
        w1 = network_simplex_w1(g, mu, nu)
        assert abs(verdict["metrics"]["exact_value"] - w1) <= 1e-9 * w1

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_readme_instance_anneals_to_a_certified_optimum(self, tmp_path, capsys, seed):
        # root relocation stopped these five max_iters, 1e-8 to 1.5e-7 above W1
        d = tmp_path
        files = ["--graph", str(d / "graph.json"), "--mu", str(d / "mu.json"), "--nu", str(d / "nu.json")]
        assert run_cli("grid", "--p", "8", "--noise-sigma", "auto", "--seed", str(seed),
                       "--out-dir", str(d)) == 0
        assert run_cli("anneal", *files, "--out-dir", str(d)) == 0
        assert json.loads((d / "anneal.manifest.json").read_text())["stop_reason"] == "certified"
        capsys.readouterr()
        assert run_cli("verify", *files, "--tree", str(d / "best_tree.json"), "--exact") == 0
        assert json.loads(capsys.readouterr().out)["all_passed"]

    def test_invalid_measure_reported_not_crashed(self, line6_files, capsys):
        bad = line6_files / "bad_mu.json"
        bad.write_text("[0.9, 0.1, 0.1, 0.0, 0.0, 0.0]\n", encoding="utf-8")
        code = run_cli(
            "verify", "--graph", str(line6_files / "graph.json"),
            "--mu", str(bad), "--nu", str(line6_files / "nu.json"),
        )
        verdict = json.loads(capsys.readouterr().out)
        assert code == 3
        named = {c["name"]: c for c in verdict["checks"]}
        assert named["measure_mass_mu"]["passed"] is False
        assert abs(named["measure_mass_mu"]["violation"] - 0.1) <= 1e-12
        assert verdict["dual_unique"] == {"value": None, "reason": "the measures are invalid"}

    def test_nan_measure_exit_2(self, line6_files, capsys):
        bad = line6_files / "nan_mu.json"
        bad.write_text("[NaN, 0.2, 0.2, 0.2, 0.2, 0.2]\n", encoding="utf-8")
        code = run_cli(
            "verify", "--graph", str(line6_files / "graph.json"),
            "--mu", str(bad), "--nu", str(line6_files / "nu.json"),
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "NaN or infinite" in captured.err

    def test_corrupted_plan_fails_named_check(self, line6_files, capsys):
        bad = line6_files / "bad_plan.csv"
        bad.write_text("x,y,mass\n0,1,-0.5\n", encoding="utf-8")
        code = run_cli(
            "verify", "--graph", str(line6_files / "graph.json"),
            "--mu", str(line6_files / "mu.json"), "--nu", str(line6_files / "nu.json"),
            "--plan", str(bad),
        )
        verdict = json.loads(capsys.readouterr().out)
        assert code == 3
        named = {c["name"]: c for c in verdict["checks"]}
        assert named["plan_nonnegative"]["passed"] is False
        assert named["plan_nonnegative"]["violation"] == 0.5

    def test_suboptimal_tree_reports_gap(self, capsys, tmp_path):
        # 4-cycle with one heavy edge: the tree through the heavy edge is bad
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 10.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_measure(tmp_path / "mu.json", [0.7, 0.1, 0.1, 0.1])
        fileio.save_measure(tmp_path / "nu.json", [0.1, 0.1, 0.1, 0.7])
        t = ot.root_tree(g, [(0, 1), (1, 2), (3, 0)], 0)
        fileio.save_tree(tmp_path / "tree.json", t)
        code = run_cli(
            "verify", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json"),
            "--tree", str(tmp_path / "tree.json"), "--exact",
        )
        verdict = json.loads(capsys.readouterr().out)
        assert code == 3
        assert verdict["metrics"]["tree_gap_vs_exact"] > 1.0
        named = {c["name"]: c for c in verdict["checks"]}
        assert named["tree_cost_matches_exact"]["passed"] is False


    def test_crossed_plan_not_cyclically_monotone(self, capsys, tmp_path):
        # line 0-1-2-3 with crossed moves 0->3 and 3->0
        g = ot.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_measure(tmp_path / "mu.json", [0.5, 0.0, 0.0, 0.5])
        fileio.save_plan(tmp_path / "plan.csv",
                         ot.make_plan(4, [(0, 3, 0.5), (3, 0, 0.5)]))
        code = run_cli(
            "verify", "--graph", str(tmp_path / "graph.json"),
            "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "mu.json"),
            "--plan", str(tmp_path / "plan.csv"),
        )
        verdict = json.loads(capsys.readouterr().out)
        assert code == 3
        named = {c["name"]: c for c in verdict["checks"]}
        assert named["plan_marginals"]["passed"] is True
        assert named["plan_cyclically_monotone"]["passed"] is False
        assert named["plan_cyclically_monotone"]["violation"] == 1.0

    @pytest.fixture
    def line3_files(self, tmp_path):
        g = ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        fileio.save_measure(tmp_path / "mu.json", [1.0, 0.0, 0.0])
        fileio.save_measure(tmp_path / "nu.json", [0.0, 0.0, 1.0])
        (tmp_path / "plan.csv").write_text("x,y,mass\n0,2,1.0\n", encoding="utf-8")
        (tmp_path / "potential.csv").write_text("vertex,u\n0,0\n1,-1\n2,-2\n",
                                                encoding="utf-8")
        return tmp_path

    def _verify_line3(self, files):
        return run_cli(
            "verify", "--graph", str(files / "graph.json"),
            "--mu", str(files / "mu.json"), "--nu", str(files / "nu.json"),
            "--plan", str(files / "plan.csv"), "--potential", str(files / "potential.csv"),
        )

    def test_line3_valid_inputs_pass(self, line3_files, capsys):
        assert self._verify_line3(line3_files) == 0
        assert json.loads(capsys.readouterr().out)["all_passed"] is True

    def test_nan_potential_exit_2(self, line3_files, capsys):
        (line3_files / "potential.csv").write_text("vertex,u\n0,0\n1,nan\n2,-2\n",
                                                   encoding="utf-8")
        code = self._verify_line3(line3_files)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "NaN or infinite" in captured.err

    def test_nan_plan_mass_exit_2(self, line3_files, capsys):
        (line3_files / "plan.csv").write_text("x,y,mass\n0,2,1.0\n0,1,nan\n",
                                              encoding="utf-8")
        code = self._verify_line3(line3_files)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and "NaN or infinite" in captured.err


class TestExportDot:
    def test_graph_only(self, capsys, tmp_path):
        g = ot.build_graph(2, [(0, 1, 1.0)])
        fileio.save_graph(tmp_path / "graph.json", g)
        assert run_cli("export-dot", "--graph", str(tmp_path / "graph.json")) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph G {")
        assert "0 -> 1 [dir=none" in out

    def test_golden_line6_with_plan(self, line6_files):
        g = fileio.load_graph(line6_files / "graph.json")
        t = fileio.load_tree(line6_files / "tree.json", g)
        mu = fileio.load_measure(line6_files / "mu.json", 6)
        nu = fileio.load_measure(line6_files / "nu.json", 6)
        plan = ot.dp_transport_plan(t, mu, nu)
        text = export_dot(g, t, plan)
        assert text.count("->") >= 5 + plan.support_size - sum(
            1 for x, y, _ in plan.entries() if x == y
        )
        # deterministic output
        assert text == export_dot(g, t, plan)
        for x, y, m in plan.entries():
            if x != y:
                assert f"  {x} -> {y} [color=\"green\"" in text
