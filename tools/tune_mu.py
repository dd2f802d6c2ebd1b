"""Sweep ADMM penalty weights for the benchmark catalog.

For each (experiment, mu) combination this reports the quantities the
benchmark suite later asserts: iterations to convergence vs. budget, final
feasibility, whether the constraint norm crosses epsilon from above, the
iteration where the objective peaks, and how many objective increases remain
after iteration 10.  The tuned values live in ballast.harness._SETTINGS (one
(mu, budget) row per catalog run); this script reproduces the evidence
behind them.  Those sweeps predate the over-relaxed step
(``ballast.solver.RELAXATION``), the iterate-change stop test and the warm
3-step TV prox: the table was tuned at relaxation 1, with an objective
tolerance per run and a cold 10-step prox, so rerunning a sweep now reports
today's solver, not the original evidence.

Usage:
    python3 tools/tune_mu.py deblur-uniform-tv --mu 0.3,0.5,1.0
    python3 tools/tune_mu.py mri --mu 20,50,100
    python3 tools/tune_mu.py all-deblur            # tuned defaults, all 15
"""

import argparse
import sys
import time

import numpy as np

from ballast import build_experiment, experiment_names, run_experiment
from ballast.solver import FEASIBILITY_SLACK, DivergenceError


def analyze(report):
    hist = report.history
    phi = np.array([r.objective for r in hist])
    con = np.array([r.constraint_norm for r in hist])
    eps = report.epsilon
    peak = int(np.argmax(phi)) + 1  # records are 1-indexed by iteration
    # increases of phi strictly after iteration 10 (float-noise slack only)
    tail = phi[10:]
    viol10 = int(np.sum(tail[1:] > tail[:-1] * (1.0 + 1e-12)))
    crossed = bool(con.max() > eps and con.min() <= eps)
    feasible = bool(report.final_constraint_norm <= (1.0 + FEASIBILITY_SLACK) * eps)
    return {
        "mu": report.config.mu,
        "status": report.status,
        "iters": report.iterations,
        "budget": report.config.max_iterations,
        "mse": report.final_mse,
        "feasible": feasible,
        "crossed": crossed,
        "peak": peak,
        "viol10": viol10,
        "phi_end": float(phi[-1]),
    }


def run_one(name, mu=None, size=None, iterations=None, seed=0):
    setup = build_experiment(name, size=size, seed=seed, mu=mu,
                             iterations=iterations)
    t0 = time.perf_counter()
    report = run_experiment(setup, counting=False)
    dt = time.perf_counter() - t0
    info = analyze(report)
    info["sec"] = dt
    return info


def fmt(name, info):
    ok = (
        info["status"] == "converged"
        and info["feasible"]
        and info["crossed"]
        and info["peak"] <= 10
        and info["viol10"] == 0
    )
    return (
        f"{name:24s} mu={info['mu']:<8g} "
        f"{info['status']:9s} k={info['iters']:3d}/{info['budget']:3d} "
        f"mse={info['mse']:10.4g} feas={int(info['feasible'])} "
        f"cross={int(info['crossed'])} peak={info['peak']:3d} "
        f"viol10={info['viol10']:3d} phi={info['phi_end']:10.4g} "
        f"[{info['sec']:5.1f}s] {'OK' if ok else '--'}"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("experiment", help="catalog name, or 'all-deblur'")
    ap.add_argument("--mu", help="comma list of penalty weights (default: catalog value)")
    ap.add_argument("--size", type=int, default=None)
    ap.add_argument("--iterations", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    mus = [float(x) for x in args.mu.split(",")] if args.mu else [None]

    if args.experiment == "all-deblur":
        names = [n for n in experiment_names() if n.startswith("deblur-")]
    else:
        names = [args.experiment]

    for name in names:
        for mu in mus:
            try:
                info = run_one(name, mu=mu, size=args.size,
                               iterations=args.iterations, seed=args.seed)
            except (DivergenceError, ValueError) as exc:  # diverged or bad knob
                print(f"{name:24s} mu={mu} FAILED: {exc}")
                continue
            print(fmt(name, info))
            sys.stdout.flush()


if __name__ == "__main__":
    main()
