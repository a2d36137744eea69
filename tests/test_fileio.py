import numpy as np
import pytest

import treeot as ot
from treeot import fileio
from treeot.errors import (
    BadDimensionsError,
    FormatError,
    NegativePixelError,
    NonFiniteMassError,
)

from conftest import random_connected_graph, random_measure_pair


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 9, extra_edges=4)
        path = tmp_path / "graph.json"
        fileio.save_graph(path, g)
        g2 = fileio.load_graph(path)
        assert g2.n == g.n and g2.edges == g.edges

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 2, "edges": [[0, 1, 1.0]]} trailing', encoding="utf-8")
        with pytest.raises(FormatError):
            fileio.load_graph(path)

    def test_label_count_checked(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 2, "edges": [[0, 1, 1.0]], "labels": ["a"]}', encoding="utf-8")
        with pytest.raises(BadDimensionsError):
            fileio.load_graph(path)


class TestTreeFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 8, extra_edges=3)
        t = ot.random_spanning_tree(g, rng)
        path = tmp_path / "tree.json"
        fileio.save_tree(path, t)
        t2 = fileio.load_tree(path, g)
        assert t2.root == t.root
        assert t2.edge_set() == t.edge_set()
        assert np.array_equal(t2.parent, t.parent)


class TestMeasureFiles:
    def test_json_round_trip(self, tmp_path):
        mu, _ = random_measure_pair(np.random.default_rng(2), 7)
        path = tmp_path / "mu.json"
        fileio.save_measure(path, mu)
        assert np.array_equal(fileio.load_measure(path, 7), mu)

    def test_csv_round_trip(self, tmp_path):
        mu, _ = random_measure_pair(np.random.default_rng(3), 5)
        path = tmp_path / "mu.csv"
        fileio.save_measure(path, mu)
        assert np.array_equal(fileio.load_measure(path, 5), mu)

    def test_normalizes_on_load(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[2.0, 2.0]\n", encoding="utf-8")
        assert fileio.load_measure(path, 2).tolist() == [0.5, 0.5]

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1.0]\n", encoding="utf-8")
        with pytest.raises(BadDimensionsError):
            fileio.load_measure(path, 2)


class TestPlanFiles:
    def test_round_trip_sorted(self, tmp_path):
        plan = ot.make_plan(4, [(3, 1, 0.25), (0, 0, 0.5), (1, 2, 0.25)])
        path = tmp_path / "plan.csv"
        fileio.save_plan(path, plan)
        body = path.read_text(encoding="utf-8")
        assert body.startswith("x,y,mass\n") and body.endswith("\n")
        triplets = fileio.load_plan_triplets(path)
        assert triplets == plan.entries()
        assert triplets == sorted(triplets)

    def test_negative_mass_survives_loading(self, tmp_path):
        # checkers must see corrupted plans, so raw loading cannot reject them
        path = tmp_path / "plan.csv"
        path.write_text("x,y,mass\n0,1,-0.5\n", encoding="utf-8")
        assert fileio.load_plan_triplets(path) == [(0, 1, -0.5)]

    def test_header_required(self, tmp_path):
        path = tmp_path / "plan.csv"
        path.write_text("0,1,0.5\n", encoding="utf-8")
        with pytest.raises(FormatError):
            fileio.load_plan_triplets(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_mass_rejected(self, tmp_path, bad):
        path = tmp_path / "plan.csv"
        path.write_text(f"x,y,mass\n0,2,1.0\n0,1,{bad}\n", encoding="utf-8")
        with pytest.raises(NonFiniteMassError):
            fileio.load_plan_triplets(path)


class TestPotentialFiles:
    def test_round_trip(self, tmp_path):
        u = ot.Potential(np.array([0.0, 1.5, -0.75]), anchor=0)
        path = tmp_path / "u.csv"
        fileio.save_potential(path, u)
        u2 = fileio.load_potential(path, 3)
        assert np.array_equal(u2.values, u.values)
        assert u2.anchor == 0

    def test_missing_vertex(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("vertex,u\n0,0.0\n", encoding="utf-8")
        with pytest.raises(BadDimensionsError):
            fileio.load_potential(path, 2)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "u.csv"
        path.write_text(f"vertex,u\n0,0.0\n1,{bad}\n2,-2.0\n", encoding="utf-8")
        with pytest.raises(NonFiniteMassError):
            fileio.load_potential(path, 3)

    def test_unparsable_value_is_format_error(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("vertex,u\n0,0.0\n1,abc\n", encoding="utf-8")
        with pytest.raises(FormatError):
            fileio.load_potential(path, 2)


class TestImageCsv:
    def test_shape_checked(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("1,2\n3,4\n5,6\n", encoding="utf-8")
        with pytest.raises(BadDimensionsError):
            fileio.load_image_csv(path, 2)

    def test_negative_pixel(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("1,2\n-3,4\n", encoding="utf-8")
        with pytest.raises(NegativePixelError):
            fileio.load_image_csv(path, 2)

    def test_reads_grid(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("1,2\n3,4\n", encoding="utf-8")
        img = fileio.load_image_csv(path, 2)
        assert img.tolist() == [[1.0, 2.0], [3.0, 4.0]]
