"""File formats.

Graph (JSON):      {"n": N, "edges": [[u, v, w], ...], "labels": [...]?}
Tree (JSON):       {"root": r, "edges": [[u, v], ...]} - weights live in the graph
Measure:           JSON array of N nonnegative reals, or CSV with one value per line
Plan (CSV):        header "x,y,mass", triplets sorted lexicographically
Potential (CSV):   header "vertex,u"
Flow (CSV):        header "vertex,parent,up,down", one row per non-root vertex: the mass
                   crossing its parent edge towards the root (up) and away from it (down)
Cumulative imbalance (CSV): header "vertex,xi_cum", the subtree sums of mu - nu
Trace (CSV):       header "iter,current_cost,best_cost,beta,accept_rate"; accept_rate is
                   the share of the proposals since the previous row that changed the tree

Numbers are written in shortest round-trip decimal form and files end with a
newline. Parsers reject trailing garbage. Every output is written by
:func:`_write_text`: in place, then cut to length; every CSV table by
:func:`_write_rows`, and read back by :func:`_csv_rows`.
"""

from __future__ import annotations

import json
import math
import os
import stat
from pathlib import Path

import numpy as np

from .annealing import TraceRecord
from .errors import BadDimensionsError, FormatError, NegativePixelError, NonFiniteMassError
from .graphs import WeightedGraph, build_graph
from .transport import Flow, Potential, TransportPlan, as_measure
from .trees import RootedTree, root_tree


def _read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``: over the old bytes in place, then
    cut the file to the length written where it was longer. Truncating a
    file to zero before writing it makes some file systems (ext4 with
    ``auto_da_alloc``) flush it on close; cutting it afterwards does not. As
    with truncation, a write that fails part way leaves the prefix of the new
    text written so far and no old bytes after it. Symlinks are followed, a
    new file gets mode 0o666 less the umask, and a file that is not regular
    (a FIFO, ``/dev/null``) is never cut."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = old_size = 0
    try:
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode):
            old_size = info.st_size
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if old_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _write_rows(path, header: str | None, rows) -> None:
    """Write a CSV table: the ``header`` line, which names the fields (None:
    no header line and one field), then one line per row, a tuple of them,
    each as ``repr``."""
    line = ",".join(["%r"] * (1 if header is None else header.count(",") + 1)) + "\n"
    head = "" if header is None else header + "\n"
    _write_text(path, head + "".join([line % row for row in rows]))


def _csv_rows(path, header: str | None, width: int | None = None):
    """The rows of a CSV table, split at commas: every non-blank line after
    the ``header`` line, which must come first (None: no header). A row of
    other than ``width`` fields (None: any) raises when it is reached, so
    the first bad row names the error."""
    lines = _read_text(path).splitlines()
    if header is not None:
        if not lines or lines[0].strip() != header:
            raise FormatError(f"{path}: missing '{header}' header")
        del lines[0]
    for ln in lines:
        if ln.strip():
            row = ln.split(",")
            if width is not None and len(row) != width:
                raise FormatError(f"{path}: bad row {ln!r}")
            yield row


def _parse_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _integer(path, value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{path}: {what} must be an integer, got {value!r}")
    return value


def _edge_rows(path, edges, fields: str) -> list[list]:
    """The rows of ``edges`` as lists of ``len(fields)`` entries: integer
    endpoints u and v, and a number w where ``fields`` is "uvw". Rows and
    columns are checked by type; only a failed check searches the rows, for
    the first bad one."""
    if not isinstance(edges, list):
        raise FormatError(f"{path}: 'edges' must be a list, got {edges!r}")
    if {type(row) for row in edges} <= {list} and {len(row) for row in edges} <= {len(fields)}:
        allowed = ({int}, {int}, {int, float})
        if all({type(x) for x in column} <= ok for column, ok in zip(zip(*edges), allowed)):
            return edges
    for row in edges:
        if not isinstance(row, list) or len(row) != len(fields):
            raise FormatError(f"{path}: edge {row!r} is not a list [{', '.join(fields)}]")
        _integer(path, row[0], "an edge endpoint")
        _integer(path, row[1], "an edge endpoint")
        if fields == "uvw" and (isinstance(row[2], bool) or not isinstance(row[2], (int, float))):
            raise FormatError(f"{path}: edge weight must be a number, got {row[2]!r}")
    return edges


def save_graph(path, g: WeightedGraph, labels: list[str] | None = None) -> None:
    doc = {"n": g.n, "edges": [[u, v, w] for u, v, w in g.edges]}
    if labels is not None:
        doc["labels"] = list(labels)
    _write_text(path, json.dumps(doc) + "\n")


def load_graph(path) -> WeightedGraph:
    doc = _parse_json(path)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise FormatError(f"{path}: expected an object with 'n' and 'edges'")
    n = _integer(path, doc["n"], "'n'")
    edges = _edge_rows(path, doc["edges"], "uvw")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise FormatError(f"{path}: 'labels' must be a list")
    if labels is not None and len(labels) != n:
        raise BadDimensionsError(f"{path}: {len(labels)} labels for {n} vertices")
    return build_graph(n, edges)


def save_tree(path, t: RootedTree) -> None:
    doc = {"root": int(t.root), "edges": sorted(t.edge_set())}
    _write_text(path, json.dumps(doc) + "\n")


def load_tree(path, g: WeightedGraph) -> RootedTree:
    doc = _parse_json(path)
    if not isinstance(doc, dict) or "root" not in doc or "edges" not in doc:
        raise FormatError(f"{path}: expected an object with 'root' and 'edges'")
    root = _integer(path, doc["root"], "'root'")
    return root_tree(g, _edge_rows(path, doc["edges"], "uv"), root)


def save_measure(path, values) -> None:
    values = [float(v) for v in values]
    if Path(path).suffix == ".csv":
        _write_rows(path, None, ((v,) for v in values))
    else:
        _write_text(path, json.dumps(values) + "\n")


def load_measure_raw(path, n: int) -> np.ndarray:
    """Values as stored, without measure validation (for checkers); only
    NaN and infinite entries are rejected."""
    path = Path(path)
    if path.suffix == ".csv":
        try:
            values = [float(v) for v, in _csv_rows(path, None, 1)]
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
    else:
        values = _parse_json(path)
        if not isinstance(values, list):
            raise FormatError(f"{path}: expected a JSON array")
        if not {type(v) for v in values} <= {int, float}:
            for v in values:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise FormatError(f"{path}: measure entry must be a number, got {v!r}")
    if len(values) != n:
        raise BadDimensionsError(f"{path}: {len(values)} values for {n} vertices")
    try:
        values = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer past float64's range
        values = None
    if values is None or not np.all(np.isfinite(values)):
        raise NonFiniteMassError(f"{path}: measure has a NaN or infinite entry")
    return values


def load_measure(path, n: int) -> np.ndarray:
    return as_measure(load_measure_raw(path, n), n, normalize=True)


def save_plan(path, plan: TransportPlan) -> None:
    _write_rows(path, "x,y,mass", plan.entries())


def load_plan_triplets(path) -> list[tuple[int, int, float]]:
    """Raw triplets, unvalidated beyond finite masses, so checkers can report
    on bad plans."""
    out = []
    for x, y, m in _csv_rows(path, "x,y,mass", 3):
        try:
            x, y, m = int(x), int(y), float(m)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if not math.isfinite(m):
            raise NonFiniteMassError(f"{path}: plan entry ({x},{y}) has a NaN or infinite mass")
        out.append((x, y, m))
    return out


def save_potential(path, u: Potential) -> None:
    _write_rows(path, "vertex,u", enumerate(np.asarray(u.values, dtype=np.float64).tolist()))


def load_potential(path, n: int) -> Potential:
    values = [0.0] * n
    seen = [False] * n
    for v, value in _csv_rows(path, "vertex,u", 2):
        try:
            v, value = int(v), float(value)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if not (0 <= v < n) or seen[v]:
            raise FormatError(f"{path}: bad or repeated vertex {v}")
        values[v] = value
        seen[v] = True
    if not all(seen):
        raise BadDimensionsError(f"{path}: missing vertices")
    values = np.array(values)
    if not np.all(np.isfinite(values)):
        raise NonFiniteMassError(f"{path}: potential has a NaN or infinite value")
    anchored = np.flatnonzero(np.abs(values) == 0.0)
    anchor = int(anchored[0]) if anchored.size else 0
    values.setflags(write=False)
    return Potential(values=values, anchor=anchor)


def save_flow(path, t: RootedTree, flow: Flow) -> None:
    rows = zip(range(t.n), t.parent.tolist(), flow.up.tolist(), flow.down.tolist())
    _write_rows(path, "vertex,parent,up,down", (row for row in rows if row[1] >= 0))


def save_cumulative_imbalance(path, xi_cum) -> None:
    _write_rows(path, "vertex,xi_cum", enumerate(np.asarray(xi_cum, dtype=np.float64).tolist()))


def save_trace(path, trace: list[TraceRecord]) -> None:
    _write_rows(path, "iter,current_cost,best_cost,beta,accept_rate", trace)


def load_image_csv(path, p: int) -> np.ndarray:
    """p x p nonnegative pixel grid from comma-separated rows."""
    try:
        rows = [[float(tok) for tok in row] for row in _csv_rows(path, None)]
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    widths = sorted({len(row) for row in rows})
    if len(rows) != p or widths != [p]:
        raise BadDimensionsError(
            f"{path}: expected {p}x{p}, got {len(rows)} rows of {widths} values")
    img = np.array(rows, dtype=np.float64)
    if img.min(initial=0.0) < 0.0:
        raise NegativePixelError(f"{path}: negative pixel value")
    return img
