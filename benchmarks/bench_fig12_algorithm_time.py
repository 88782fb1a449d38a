"""Figure 12: placement-algorithm running time vs GPUs per instance.

The paper runs both algorithms on a 96-core CPU node and reports
runtimes in seconds-to-minutes, scaling with the number of GPUs
(``N x M``) available to one instance and independent of model size
(the simulator only walks discrete events). We time our Algorithm 1
and Algorithm 2 implementations across cluster sizes and check the
same qualitative properties. Each of these searches passes no
``trial_cache``, so it starts from a fresh cache and its time is its
own, whatever ran before it.

The second half benchmarks the search-acceleration layer
(:mod:`repro.core.search`): the same sweep is run once *unaccelerated*
(a fresh cache per search, no pruning, no early abort, serial) and then
once per ``workers`` setting with the accelerated defaults, passing one
``TrialCache`` to every search of the sweep the way a real capacity
study would. Speedups and the placement-parity check land in
``BENCH_search.json``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.analysis import format_table
from repro.core import (
    PlacementSearchStats,
    TrialCache,
    place_high_affinity,
    place_low_affinity,
)
from repro.hardware import Cluster, Node
from repro.models import get_model
from repro.workload import SLO, get_dataset

DATASET = get_dataset("sharegpt")
SLO_13B = SLO(ttft=0.2, tpot=0.1)
CLUSTER_SIZES = [(1, 2), (1, 4), (2, 4)]  # (nodes, gpus/node)
N_REQ = 60  # small trials: we time the search machinery, not accuracy
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_search.json"


def run_figure12():
    rows = []
    for num_nodes, gpn in CLUSTER_SIZES:
        cluster = Cluster(nodes=[Node(index=i, num_gpus=gpn) for i in range(num_nodes)])
        for name, fn, kwargs in (
            ("Alg1 (High)", place_high_affinity, {}),
            ("Alg2 (Low)", place_low_affinity, {"joint_sim_candidates": 2}),
        ):
            for model_name in ("opt-13b", "opt-66b"):
                model = get_model(model_name)
                stats = PlacementSearchStats()
                start = time.perf_counter()
                try:
                    fn(
                        model, cluster, DATASET, SLO_13B,
                        traffic_rate=None, num_requests=N_REQ,
                        stats=stats, **kwargs,
                    )
                    elapsed = time.perf_counter() - start
                except RuntimeError:
                    elapsed = time.perf_counter() - start
                rows.append(
                    [
                        f"{num_nodes}x{gpn}",
                        name,
                        model_name,
                        elapsed,
                        stats.configs_evaluated,
                        stats.simulation_trials,
                    ]
                )
    return rows


def test_fig12_algorithm_time(benchmark):
    rows = benchmark.pedantic(run_figure12, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["cluster", "algorithm", "model", "seconds", "configs", "sim trials"],
            rows,
            title="Figure 12: placement algorithm running time",
            float_fmt="{:.1f}",
        )
    )
    # More GPUs -> more configurations enumerated (for the same algorithm
    # and model).
    alg1_13b = [r for r in rows if r[1] == "Alg1 (High)" and r[2] == "opt-13b"]
    configs = [r[4] for r in alg1_13b]
    assert configs == sorted(configs) and configs[-1] > configs[0]
    # Every search completes within minutes even at the largest size —
    # the paper's practicality claim.
    assert all(r[3] < 600 for r in rows)


# ----------------------------------------------------------------------
# Search-acceleration benchmark (BENCH_search.json)
# ----------------------------------------------------------------------

def _sweep_searches(quick: bool):
    """The (label, fn, model, cluster, kwargs) sweep both modes run.

    Cluster sizes are nested — the (tp, pp) candidate sets of a 1x2
    cluster are a subset of 1x4's, which are a subset of 2x4's — so the
    shared trial cache gets genuine cross-search hits, exactly the
    replanning/capacity-study access pattern it exists for. The sweep
    ends with a *replan* pass over the largest cluster: the paper's
    controller (§4.3) re-runs the search on unchanged inputs whenever it
    checks for workload drift, which a warm cache answers from memory.
    """
    sizes = CLUSTER_SIZES[:2] if quick else CLUSTER_SIZES
    searches = []
    model = get_model("opt-13b")
    for num_nodes, gpn in sizes:
        cluster = Cluster(
            nodes=[Node(index=i, num_gpus=gpn) for i in range(num_nodes)]
        )
        searches.append(
            (f"alg1-{num_nodes}x{gpn}", place_high_affinity, model, cluster, {})
        )
        searches.append(
            (
                f"alg2-{num_nodes}x{gpn}",
                place_low_affinity,
                model,
                cluster,
                # Deep enough that the estimate-dominance early stop has
                # later joint-simulation waves to skip.
                {"joint_sim_candidates": 4},
            )
        )
    # Replanning pass: repeat the largest cluster's searches verbatim.
    for label, fn, mdl, cluster, kwargs in list(searches[-2:]):
        searches.append((f"{label}-replan", fn, mdl, cluster, kwargs))
    return searches


def _run_sweep(searches, *, workers, accelerated, num_requests):
    """Run the sweep; return (total seconds, per-search rows, stats, placements)."""
    cache = TrialCache()  # fresh per mode, shared across the sweep inside it
    stats = PlacementSearchStats()
    placements, rows = [], []
    total = 0.0
    for label, fn, model, cluster, kwargs in searches:
        t0 = time.perf_counter()
        try:
            placement = fn(
                model, cluster, DATASET, SLO_13B,
                traffic_rate=None, num_requests=num_requests,
                stats=stats, workers=workers,
                trial_cache=cache if accelerated else None,
                prune=accelerated, early_abort=accelerated,
                **kwargs,
            )
        except RuntimeError:
            placement = None
        elapsed = time.perf_counter() - t0
        total += elapsed
        placements.append(placement)
        rows.append({"search": label, "seconds": round(elapsed, 3)})
    return total, rows, stats, placements


def run_search_bench(workers_list=(1, 4, 8), quick=False, num_requests=N_REQ):
    """Benchmark the search-acceleration layer against the naive search."""
    searches = _sweep_searches(quick)
    base_total, base_rows, base_stats, base_placements = _run_sweep(
        searches, workers=1, accelerated=False, num_requests=num_requests
    )
    report = {
        "description": "placement-search acceleration (cache + pruning + "
                       "early abort + worker processes) vs unaccelerated search",
        "num_requests": num_requests,
        "quick": quick,
        "searches": [label for label, *_ in searches],
        "baseline": {
            "wall_time_s": round(base_total, 3),
            "per_search": base_rows,
            "simulation_trials": base_stats.simulation_trials,
        },
        "runs": [],
        "placement_parity": True,
    }
    for workers in workers_list:
        total, rows, stats, placements = _run_sweep(
            searches, workers=workers, accelerated=True, num_requests=num_requests
        )
        if placements != base_placements:
            report["placement_parity"] = False
        report["runs"].append(
            {
                "workers": workers,
                "wall_time_s": round(total, 3),
                "speedup_vs_baseline": round(base_total / total, 2) if total else None,
                "per_search": rows,
                "stats": {
                    "simulation_trials": stats.simulation_trials,
                    "configs_pruned": stats.configs_pruned,
                    "cache_hits": stats.cache_hits,
                    "cache_misses": stats.cache_misses,
                    "cache_hit_rate": round(stats.cache_hit_rate, 3),
                    "trials_aborted": stats.trials_aborted,
                    "trials_truncated": stats.trials_truncated,
                },
            }
        )
    return report


def test_search_acceleration(benchmark):
    report = benchmark.pedantic(
        lambda: run_search_bench(workers_list=(1, 4), quick=True),
        rounds=1, iterations=1,
    )
    print()
    print(json.dumps(report, indent=2))
    # The accelerated search must return the exact placements of the
    # naive one — acceleration is an optimization, never a result change.
    assert report["placement_parity"]
    # Cache + pruning + early abort must beat the naive search outright,
    # even serially.
    serial = next(r for r in report["runs"] if r["workers"] == 1)
    assert serial["speedup_vs_baseline"] > 1.0
    assert serial["stats"]["cache_hits"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers", default="1,4,8",
        help="comma-separated worker counts to sweep (default: 1,4,8)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep (fewer cluster sizes) for CI smoke runs",
    )
    parser.add_argument(
        "--requests", type=int, default=N_REQ,
        help=f"trace length per simulation trial (default: {N_REQ})",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    workers_list = tuple(int(w) for w in args.workers.split(",") if w.strip())
    report = run_search_bench(
        workers_list=workers_list, quick=args.quick, num_requests=args.requests
    )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    base = report["baseline"]["wall_time_s"]
    print(f"baseline (unaccelerated, serial): {base:.1f}s")
    for run in report["runs"]:
        print(
            f"workers={run['workers']}: {run['wall_time_s']:.1f}s "
            f"({run['speedup_vs_baseline']}x), "
            f"hit rate {run['stats']['cache_hit_rate']:.1%}, "
            f"{run['stats']['configs_pruned']} pruned, "
            f"{run['stats']['trials_aborted']} aborted"
        )
    print(f"placement parity: {report['placement_parity']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
