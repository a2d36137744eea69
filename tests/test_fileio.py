import errno
import functools
import io
import json
import os
import stat
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import treeot as ot
from treeot import fileio
from treeot.cli import main
from treeot.errors import (
    BadDimensionsError,
    FormatError,
    NegativePixelError,
    NonFiniteMassError,
    VertexRangeError,
)

from conftest import (
    raised,
    random_connected_graph,
    random_measure_pair,
    reference_edge_rows,
    reference_load_plan_triplets,
    reference_load_potential,
)

# (edges, fields) as json.loads gives them, for a graph file ("uvw") or a tree
# file ("uv"); each of the last 22 breaks a rule of the library's row reader,
# some in several rows or entries
EDGE_ROWS = {
    "valid": ([[0, 1, 1.0], [1, 2, 2], [2, 3, 10**30]], "uvw"),
    "valid-tree": ([[0, 1], [1, 2]], "uv"),
    "empty": ([], "uvw"),
    "not-a-list": ({"0": [0, 1, 1.0]}, "uvw"),
    "null": (None, "uv"),
    "row-dict": ([[0, 1, 1.0], {"u": 0}], "uvw"),
    "row-number": ([[0, 1], 3], "uv"),
    "row-text": ([[0, 1], "01"], "uv"),
    "row-short": ([[0, 1, 1.0], [1, 2]], "uvw"),
    "row-long": ([[0, 1], [1, 2, 3.0]], "uv"),
    "row-empty": ([[0, 1], []], "uv"),
    "endpoint-bool": ([[0, 1, 1.0], [True, 2, 1.0]], "uvw"),
    "endpoint-float": ([[0, 1], [1, 2.0]], "uv"),
    "endpoint-text": ([[0, "1", 1.0]], "uvw"),
    "endpoint-null": ([[0, 1], [None, 2]], "uv"),
    "endpoint-list": ([[0, [1], 1.0]], "uvw"),
    "weight-bool": ([[0, 1, 1.0], [1, 2, False]], "uvw"),
    "weight-text": ([[0, 1, "1.0"]], "uvw"),
    "weight-null": ([[0, 1, None]], "uvw"),
    "v-before-w": ([[0, 1.5, "w"]], "uvw"),
    "u-before-v": ([[0, 1, 1.0], [True, None, 1.0]], "uvw"),
    "shape-before-type": ([[0, 1], [1, 2, 3], [True, 2]], "uv"),
    "type-before-shape": ([[0, 1], [True, 2], [1, 2, 3]], "uv"),
    "weight-before-endpoint": ([[0, 1, None], [1.5, 2, 1.0]], "uvw"),
    "endpoint-before-weight": ([[0, 1.5, 1.0], [1, 2, None]], "uvw"),
}


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


class TestEdgeRows:
    @pytest.mark.parametrize("name", EDGE_ROWS)
    def test_rows_are_checked_as_the_row_loop_checked_them(self, tmp_path, name):
        # a graph file on 4 vertices (1 without edges), a tree file on the path 0-1-2
        edges, fields = EDGE_ROWS[name]
        path = tmp_path / "g.json"
        if fields == "uvw":
            doc = {"n": 4 if edges else 1, "edges": edges}
            load = functools.partial(fileio.load_graph, path)
        else:
            doc = {"root": 0, "edges": edges}
            load = functools.partial(fileio.load_tree, path, ot.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert raised(load) == raised(reference_edge_rows, path, edges, fields)

    def test_graph_file_reports_the_first_bad_row(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"n": 3, "edges": [[0, 1, 1.0], [1, 2.0, 1.0], [1, true, 1.0]]}',
                        encoding="utf-8")
        with pytest.raises(VertexRangeError) as caught:
            fileio.load_graph(path)
        assert str(caught.value) == f"{path}: an end of edge [1, 2.0, 1.0] must be an integer, not 2.0"


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

    @pytest.mark.parametrize("body, bad", [("[0.5, true]", "True"), ('[1, "2", null]', "'2'"),
                                           ("[null, 1.0]", "None"), ("[[0.5], 0.5]", "[0.5]")])
    def test_first_non_number_named(self, tmp_path, body, bad):
        path = tmp_path / "m.json"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(NonFiniteMassError) as caught:
            fileio.load_measure_raw(path, 2)
        assert str(caught.value) == f"{path}: measure entries must be real numbers, not {bad}"

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


# plan.csv bodies, each but the first few breaking a rule of
# load_plan_triplets, some in several rows
PLAN_BODIES = {
    "valid": "x,y,mass\n0,1,0.5\n1,0,0.25\n2,2,0.25\n",
    "valid-odd-ints": "x,y,mass\n +3,-1,1e-300\n1_0,0010,-0.0\n%d,0,5\n" % 10**30,
    "valid-blank-lines-crlf": "x,y,mass\r\n\r\n0,1,0.5\r\n   \r\n1,2,0.5\r\n",
    "header-only": "x,y,mass\n",
    "header-padded": "  x,y,mass \n0,1,1\n",
    "empty-file": "",
    "no-header": "0,1,0.5\n",
    "short-row": "x,y,mass\n0,1,0.5\n0,1\n",
    "long-row": "x,y,mass\n0,1,0.5\n0,1,0.5,\n",
    "empty-row": "x,y,mass\n0,1,0.5\n,\n",
    "x-text": "x,y,mass\n0,1,0.5\na,1,0.5\n",
    "y-float": "x,y,mass\n0,1.5,0.5\n",
    "mass-text": "x,y,mass\n0,1,abc\n",
    "mass-nan": "x,y,mass\n0,2,1.0\n0,1,nan\n",
    "mass-overflow": "x,y,mass\n0,1,1e400\n",
    "mass-minus-inf": "x,y,mass\n3,4,-inf\n",
    "nan-before-bad-int": "x,y,mass\n0,1,nan\n0,x,1\n",
    "bad-int-before-nan": "x,y,mass\n0,x,1\n0,1,nan\n",
    "nan-before-short-row": "x,y,mass\n0,1,inf\n0,1\n",
    "short-row-before-bad-mass": "x,y,mass\n0\n0,1,zz\n",
    "x-before-mass": "x,y,mass\nq,1,zz\n",
}

# potential.csv bodies and vertex counts
POTENTIAL_BODIES = {
    "valid": ("vertex,u\n0,0.0\n1,1.5\n2,-0.75\n", 3),
    "valid-shuffled": ("vertex,u\n2,0.25\n\n0,-0.0\n1,0.0\n", 3),
    "valid-empty": ("vertex,u\n", 0),
    "valid-no-zero": ("vertex,u\n0,1.0\n1,2.0\n", 2),
    "no-header": ("0,0.0\n", 1),
    "empty-file": ("", 1),
    "missing": ("vertex,u\n0,0.0\n", 2),
    "empty-for-two": ("vertex,u\n", 2),
    "repeated": ("vertex,u\n0,0.0\n0,1.0\n1,2.0\n", 2),
    "too-large": ("vertex,u\n0,0.0\n2,1.0\n", 2),
    "negative": ("vertex,u\n-1,0.0\n0,1.0\n", 2),
    "huge": ("vertex,u\n%d,0.0\n" % 10**30, 1),
    "short-row": ("vertex,u\n0\n", 1),
    "long-row": ("vertex,u\n0,1.0,2.0\n", 1),
    "value-text": ("vertex,u\n0,0.0\n1,abc\n", 2),
    "vertex-float": ("vertex,u\n0.0,0.0\n", 1),
    "nan": ("vertex,u\n0,0.0\n1,nan\n2,-2.0\n", 3),
    "nan-and-missing": ("vertex,u\n0,nan\n", 2),
    "repeat-before-bad-value": ("vertex,u\n0,0.0\n0,1.0\n1,x\n", 2),
    "bad-value-before-repeat": ("vertex,u\n0,x\n0,1.0\n0,1.0\n", 2),
    "range-before-short-row": ("vertex,u\n5,0.0\n1\n", 2),
    "short-row-before-range": ("vertex,u\n1\n5,0.0\n", 2),
}


def load_outcome(load, reference, path, *args):
    """``(type, message)`` of what ``load`` raises, or its result as
    ``reference`` gives it; both must agree."""
    expected = raised(reference, path, *args)
    assert raised(load, path, *args) == expected
    return expected


class TestLoadersMatchTheRowLoops:
    """``load_plan_triplets`` and ``load_potential`` raise and return what the
    reference row loops of ``conftest.py`` do: the same exception type and
    message for the first bad row, or the same result bit for bit."""

    @pytest.mark.parametrize("name", PLAN_BODIES)
    def test_plan_files(self, tmp_path, name):
        path = tmp_path / "plan.csv"
        path.write_bytes(PLAN_BODIES[name].encode("utf-8"))
        if load_outcome(fileio.load_plan_triplets, reference_load_plan_triplets, path) is None:
            got = fileio.load_plan_triplets(path)
            assert repr(got) == repr(reference_load_plan_triplets(path))
            assert name.startswith(("valid", "header"))

    @pytest.mark.parametrize("name", POTENTIAL_BODIES)
    def test_potential_files(self, tmp_path, name):
        body, n = POTENTIAL_BODIES[name]
        path = tmp_path / "u.csv"
        path.write_bytes(body.encode("utf-8"))
        if load_outcome(fileio.load_potential, reference_load_potential, path, n) is None:
            u = fileio.load_potential(path, n)
            values, anchor = reference_load_potential(path, n)
            assert u.values.tobytes() == values.tobytes() and u.anchor == anchor
            assert name.startswith("valid")

    def test_random_corruptions(self, tmp_path):
        rng = np.random.default_rng(515)
        junk = ["", "x", "1.5", "nan", "inf", "-1", "7", "99", "1e400", " 2", "0,0"]
        path = tmp_path / "f.csv"
        outcomes = set()
        for trial in range(300):
            n = int(rng.integers(1, 9))
            if trial % 2:
                rows = [[str(v), repr(float(x))] for v, x in zip(rng.permutation(n).tolist(),
                                                                   rng.normal(size=n).tolist())]
            else:
                rows = [[str(int(a)), str(int(b)), repr(float(m))]
                        for a, b, m in zip(*rng.integers(0, n, (2, n)), rng.random(n))]
            for _ in range(int(rng.integers(0, 3))):
                row = rows[int(rng.integers(0, len(rows)))]
                row[int(rng.integers(0, len(row)))] = junk[int(rng.integers(0, len(junk)))]
            if rng.random() < 0.2:
                del rows[int(rng.integers(0, len(rows)))]
            header = "vertex,u" if trial % 2 else "x,y,mass"
            path.write_text("\n".join([header, *map(",".join, rows)]) + "\n", encoding="utf-8")
            if trial % 2:
                outcome = load_outcome(fileio.load_potential, reference_load_potential, path, n)
                if outcome is None:
                    values, anchor = reference_load_potential(path, n)
                    u = fileio.load_potential(path, n)
                    assert u.values.tobytes() == values.tobytes() and u.anchor == anchor
            else:
                outcome = load_outcome(fileio.load_plan_triplets, reference_load_plan_triplets, path)
                if outcome is None:
                    assert (repr(fileio.load_plan_triplets(path))
                            == repr(reference_load_plan_triplets(path)))
            outcomes.add(outcome[0] if outcome else None)
        assert outcomes == {None, FormatError, NonFiniteMassError, BadDimensionsError}


class TestImageCsv:
    def test_shape_checked(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("1,2\n3,4\n5,6\n", encoding="utf-8")
        with pytest.raises(BadDimensionsError):
            fileio.load_image_csv(path, 2)
        path.write_text("1,2\n3\n", encoding="utf-8")  # ragged rows
        with pytest.raises(BadDimensionsError, match=r"expected 2x2, got 2 rows of \[1, 2\] values"):
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


class TestWriter:
    """``fileio._write_text`` writes in place and then cuts the file to the
    length written."""

    @pytest.mark.parametrize("new", ["vertex,u\n0,0.0\n", "vertex,u\n" + "0,0.125\n" * 499 + "0,0.25\n"])
    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path, new):
        path = tmp_path / "potential.csv"
        fileio._write_text(path, "vertex,u\n" + "0,0.125\n" * 500)
        fileio._write_text(path, new)
        assert path.read_bytes() == new.encode("utf-8")

    def test_longer_rewrite_is_written_in_full(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text("[]\n", encoding="utf-8")
        text = '{"labels": ["' + "é中" * 200_000 + '"]}\n'
        fileio._write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")

    def test_write_through_a_symlink_updates_its_target(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("x,y,mass\n0,1,0.5\n1,0,0.5\n", encoding="utf-8")
        link = tmp_path / "plan.csv"
        link.symlink_to(target)
        fileio._write_text(link, "x,y,mass\n")
        assert link.is_symlink() and target.read_bytes() == b"x,y,mass\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_modes_match_a_plain_text_write(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            fileio._write_text(tmp_path / "new.json", "{}\n")
            (tmp_path / "plain.json").write_text("{}\n", encoding="utf-8")
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "new.json").stat().st_mode)
        assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)
        os.chmod(tmp_path / "new.json", 0o600)
        fileio._write_text(tmp_path / "new.json", "[]\n")
        assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o600

    def test_failed_write_keeps_the_bytes_written(self, tmp_path, monkeypatch):
        argv = ["grid", "--p", "3", "--seed", "4", "--noise-sigma", "auto", "--out-dir"]
        with redirect_stdout(io.StringIO()):
            assert main(argv + [str(tmp_path / "fresh")]) == 0
        full = (tmp_path / "fresh" / "graph.json").read_bytes()
        out = tmp_path / "out"
        out.mkdir()
        (out / "graph.json").write_bytes(b"#" * (3 * len(full)))
        real_write, calls = os.write, []

        def write_part_then_fail(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:10])

        monkeypatch.setattr(os, "write", write_part_then_fail)
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv + [str(out)])
        monkeypatch.undo()
        assert code == 2 and len(calls) == 2
        assert stderr.getvalue().splitlines() == [f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
        assert (out / "graph.json").read_bytes() == full[:10]

    def test_outputs_to_a_device(self, tmp_path):
        with redirect_stdout(io.StringIO()):
            assert main(["grid", "--p", "2", "--out-dir", str(tmp_path)]) == 0
            files = ["--graph", str(tmp_path / "graph.json"), "--mu", str(tmp_path / "mu.json"),
                     "--nu", str(tmp_path / "nu.json")]
            assert main(["verify", *files, "--out", os.devnull]) == 0
            assert main(["export-dot", "--graph", str(tmp_path / "graph.json"), "--out", os.devnull]) == 0
