"""Throughput of the annealing kernel on each backend, and trace parity.

The backend is chosen by TREEOT_BACKEND when the kernel is first used, so
each backend runs in a subprocess. The C backend, where it loads, is timed
against the plain-Python kernel, and its trace, iterations run, stop reason
and the generator's final state must equal the Python ones bit for bit.
An iteration is one proposal of the chain's cycle-exchange move (a null
one included, where the arc drawn is a tree edge), so proposals/s count the
iterations run. ``--iters`` is a budget: a chain stops sooner once its best
tree is certified optimal, which it checks on each trace row, every
``iters // 10`` iterations. The default 12x12 chain certifies on the first
row, so with the default budget the timing and the parity check cover
20,000 iterations, and with ``--iters 2000000`` 200,000; the script reports
the iterations run.
Usage:

    python benchmarks/bench_anneal.py [--p 12] [--iters 200000] [--seed 0]

Exits 1 if any trace or final generator state differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKER = """
import json, sys, time
import numpy as np
import treeot as ot
from treeot.annealing import _chain_inputs, _run_chain

p, iters, seed = json.loads(sys.stdin.read())
g = ot.grid_graph(p)
rng = np.random.default_rng(1234)
mu = rng.random(p * p) + 0.01; mu /= mu.sum()
nu = rng.random(p * p) + 0.01; nu /= nu.sum()
cfg = ot.AnnealConfig(max_iters=iters, seed=seed, record_every=max(1, iters // 10))

# the first call pays any build cost; it runs anneal's chain on a generator
# of its own, so that the generator's final state can be compared too
rng = np.random.default_rng(seed)
xi, stop_at = _chain_inputs(g, mu, nu, None)
replay = _run_chain(g, xi, cfg, stop_at, rng)
t0 = time.perf_counter()
res = ot.anneal(g, mu, nu, cfg)
dt = time.perf_counter() - t0
assert replay.trace == res.trace
print(json.dumps({
    "backend": ot.kernel_backend(),
    "seconds": dt,
    "iters_run": res.iters_run,
    "stop_reason": res.stop_reason,
    "iters_per_second": res.iters_run / dt,
    "rng_state": rng.bit_generator.state,
    "trace": [[r.iter, r.current_cost.hex(), r.best_cost.hex(), r.beta.hex(), r.accept_rate.hex()]
              for r in res.trace],
}))
"""

COMPILED = ("c",)


def run_backend(name: str, payload) -> dict | None:
    """The worker's report on backend ``name``, or None if it cannot load here."""
    env = dict(os.environ, TREEOT_BACKEND=name)
    proc = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-c", WORKER],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        if "KernelBackendError" in proc.stderr:
            print(f"  {name:8} : unavailable ({proc.stderr.strip().splitlines()[-1]})")
            return None
        raise RuntimeError(f"backend {name} failed:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    if report["backend"] != name:
        raise RuntimeError(f"asked for backend {name}, ran {report['backend']}")
    print(f"  {name:8} : {report['seconds']:8.3f} s  ({report['iters_per_second']:12.0f} "
          "proposals/s), "
          f"{report['iters_run']} iterations, stopped: {report['stop_reason']}")
    return report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=12, help="lattice side length")
    ap.add_argument("--iters", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    payload = [args.p, args.iters, args.seed]

    print(f"lattice {args.p}x{args.p}, {args.iters} iterations, seed {args.seed}")
    plain = run_backend("python", payload)
    if plain["iters_run"] < args.iters:
        print(f"  note     : the chain stopped after {plain['iters_run']} of {args.iters} "
              f"iterations; timing and parity cover those only")
    mismatched = []
    for name in COMPILED:
        report = run_backend(name, payload)
        if report is None:
            continue
        same = all(report[k] == plain[k] for k in ("trace", "iters_run", "stop_reason"))
        same_state = report["rng_state"] == plain["rng_state"]
        print(f"  {name:8} : {plain['seconds'] / report['seconds']:8.1f}x the Python kernel, "
              f"trace identical: {same}, final generator state identical: {same_state}")
        same = same and same_state
        if not same:
            mismatched.append(name)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
