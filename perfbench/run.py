"""landsite benchmark: one seeded workload per run, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rubble --seed 7 --seconds 45 --trace 0

The package is imported from ``src/`` next to this directory and driven
only through its public entry points: ``landsite.cli.main`` in-process,
``pipeline.evaluate_costmaps``/``detect_frame``, ``registry.cluster_sites``
and ``SiteRegistry.insert_positions``/``nearest``/``load``. One process,
one thread; BLAS and OpenMP are pinned to one thread.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it installs span wrappers (see ``spans.py``) and reports
the per-layer metrics, a per-span self-time table, the tracing overhead
and a registry scaling probe. Every run checks the package's outputs
(see ``checks.py``) and exits 1 if a check or an operation failed. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 2 means
the package could not be found next to the benchmark.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("rubble", "registry-mission")
SETUP_SAMPLES = 3  # this process plus two set-up-only child processes

END_TO_END = {
    "frame_ms_p50": "ms",
    "batch_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, span or source, aggregation, what it should move)
LAYERS = {
    "pipeline.read_ms": ("ms", "pipeline.read", "call_ms",
                         "batch_s on rubble; no frame_ms"),
    "pipeline.run_ms": ("ms", "pipeline.run", "call_ms",
                        "batch_s on rubble"),
    "pipeline.write_ms": ("ms", "pipeline.write", "call_ms",
                          "batch_s on rubble"),
    "pipeline.write_candidates_ms": ("ms", "pipeline.write_candidates", "call_ms",
                                     "batch_s on rubble"),
    "pipeline.write_bytes": ("bytes", "write_bytes", "workload",
                             "batch_s on rubble"),
    "costmaps.ms": ("ms", "costmaps", "call_ms",
                    "frame_ms_p50 and batch_s on rubble; "
                    "nothing on registry-mission"),
    "costmaps.depth_confidence_ms": ("ms", "costmaps.depth_confidence", "call_ms",
                                     "as costmaps.ms"),
    "costmaps.normals_ms": ("ms", "costmaps.normals", "call_ms", "as costmaps.ms"),
    "costmaps.steepness_ms": ("ms", "costmaps.steepness", "call_ms",
                              "as costmaps.ms"),
    "costmaps.energy_ms": ("ms", "costmaps.energy", "call_ms", "as costmaps.ms"),
    "costmaps.fuse_ms": ("ms", "costmaps.fuse", "parent_sum_ms",
                         "as costmaps.ms"),
    "costmaps.valid_frac": ("ratio", ("costmaps", "valid_px", "costmaps", "pixels"),
                            "ratio", "input property; explains costmaps.ms"),
    "canny.ms": ("ms", "canny", "call_ms", "as costmaps.ms"),
    "canny.edge_frac": ("ratio", ("canny", "edge_px", "canny", "valid_px"),
                        "ratio", "input property; explains edt.ms"),
    "edt.ms": ("ms", "edt", "call_ms", "as costmaps.ms"),
    "detection.ms": ("ms", "detection", "call_ms",
                     "frame_ms_p50 and batch_s on rubble"),
    "detection.select_ms": ("ms", "detection.select", "call_ms",
                            "as detection.ms"),
    "detection.build_ms": ("ms", "detection.build", "call_ms", "as detection.ms"),
    "detection.lift_ms": ("ms", "detection.lift", "call_ms", "as detection.ms"),
    "detection.candidates": ("count", ("detection.select", "candidates"),
                             "median_count", "input property; scales detection "
                             "and the writer"),
    "detection.pass_frac": ("ratio", ("detection.select", "candidates",
                                      "costmaps", "valid_px"),
                            "ratio", "input property; scales detection"),
    "registry.insert_ms": ("ms", "registry.insert", "call_ms",
                           "frame_ms_p50 on registry-mission; under 1% elsewhere"),
    "registry.accept_frac": ("ratio", ("registry.insert", "accepted",
                                       "registry.insert", "offered"),
                             "ratio", "input property; registry growth"),
    "registry.cluster_ms": ("ms", "registry.cluster", "call_ms",
                            "frame_ms_p50 and batch_s on registry-mission"),
    "registry.load_ms": ("ms", "registry.load", "call_ms",
                         "setup_s and batch_s on registry-mission"),
    "registry.sites": ("count", "final_sites", "workload",
                       "input property; scales registry and kdtree work"),
    "registry.clusters": ("count", "final_clusters", "workload",
                          "output property; must not change"),
    "kdtree.nearest_us": ("us", "kdtree.nearest", "call_us",
                          "planner nearest() latency on registry-mission "
                          "(no end-to-end gate)"),
    "kdtree.insert_us": ("us", "kdtree.insert", "call_us",
                         "setup_s through load; frame_ms_p50 on registry-mission"),
    "scene_synth.render_ms": ("ms", "scene_synth.render", "call_ms",
                              "setup_s on rubble"),
}
# Registry scaling probe at 2.5k and 10k sites (traces probe-0 and probe-1).
for _i, _n in enumerate((2500, 10000)):
    LAYERS[f"registry.insert_ms.n{_n}"] = (
        "ms", "registry.insert", f"probe_ms:{_i}", "scaling probe; no gate")
    LAYERS[f"registry.cluster_ms.n{_n}"] = (
        "ms", "registry.cluster", f"probe_ms:{_i}", "scaling probe; no gate")
    LAYERS[f"kdtree.nearest_us.n{_n}"] = (
        "us", "kdtree.nearest", f"probe_us:{_i}", "scaling probe; no gate")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=45.0,
                   help="measured time; whole rounds are run until it is used")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes: 2 frames, a few hundred sites")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for "
                        "the extra set-up samples)")
    return p.parse_args(argv)


def import_package():
    """Import landsite from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import landsite
    except ImportError as exc:
        print(f"error: landsite not importable from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(landsite.__file__).resolve().parent != SRC / "landsite":
        print(f"error: landsite imported from {landsite.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def environment(args) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pct(values, q: int) -> float:
    """q-th percentile, inclusive method (matches statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_samples(args, first: tuple) -> list[tuple]:
    """This run's (set-up time, reference time) plus those of fresh
    set-up-only processes."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up child exited {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((out["setup_s"], out["ref_s"]))
    return samples


def run_rounds(one_round, seconds: float) -> int:
    """Whole rounds until the next one would overrun ``seconds``; at least one."""
    start = time.perf_counter()
    r = 0
    while True:
        t = time.perf_counter()
        one_round(r)
        r += 1
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return r


def end_to_end_metrics(rec, setup: list[tuple]) -> tuple[dict, dict]:
    import hostspeed
    values = {
        "frame_ms_p50": statistics.median(rec.frame_ms),
        "batch_s": statistics.median(rec.batch_s),
        "setup_s": statistics.median(hostspeed.scaled(s, ref, ref) for s, ref in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"frame_ms_p50": len(rec.frame_ms), "batch_s": len(rec.batch_s),
               "setup_s": len(setup), "peak_rss_mb": 1}
    return values, samples


def nearest_summary(rec) -> dict:
    """nearest() latency, reported but not an end-to-end metric: on
    ``rubble`` it follows the k-d tree shape of each seed's scene."""
    us = rec.nearest_us
    return {"n": len(us), "p50_us": statistics.median(us),
            "p90_us": pct(us, 90) if len(us) >= 100 else None}


def span_stats(tracer) -> dict:
    """name -> list of (trace, parent, duration s, self s, counts)."""
    own = tracer.self_times()
    stats: dict[str, list] = {}
    for (name, trace, parent, t0, t1, counts), self_s in zip(tracer.spans, own):
        stats.setdefault(name, []).append((trace, parent, t1 - t0, self_s,
                                           counts or {}))
    return stats


def layer_metrics(stats: dict, wl) -> dict:
    def rows(name, probe=None):
        out = []
        for row in stats.get(name, ()):
            trace = row[0]
            if probe is None:
                if trace != "warmup" and not trace.startswith("probe-"):
                    out.append(row)
            elif trace == f"probe-{probe}":
                out.append(row)
        return out

    def total(name, key):
        return sum(r[4].get(key, 0) for r in rows(name))

    values = {}
    for metric, (_, source, agg, _) in LAYERS.items():
        if agg == "workload":
            v = getattr(wl, source)
        elif agg in ("call_ms", "call_us"):
            d = [r[2] for r in rows(source)]
            v = statistics.median(d) * (1e3 if agg == "call_ms" else 1e6) if d else 0.0
        elif agg == "parent_sum_ms":
            per_parent: dict[int, float] = {}
            for r in rows(source):
                per_parent[r[1]] = per_parent.get(r[1], 0.0) + r[2]
            v = statistics.median(per_parent.values()) * 1e3 if per_parent else 0.0
        elif agg == "median_count":
            c = [r[4][source[1]] for r in rows(source[0]) if source[1] in r[4]]
            v = statistics.median(c) if c else 0
        elif agg == "ratio":
            den = total(source[2], source[3])
            v = total(source[0], source[1]) / den if den else 0.0
        else:  # probe_ms:<n> / probe_us:<n>
            kind, i = agg.split(":")
            d = [r[2] for r in rows(source, probe=i)]
            v = statistics.median(d) * (1e3 if kind == "probe_ms" else 1e6) if d else 0.0
        values[metric] = v
    return values


def span_table(stats: dict) -> list[dict]:
    table = []
    for name, rs in sorted(stats.items()):
        rs = [r for r in rs if r[0] != "warmup" and not r[0].startswith("probe-")]
        if not rs:
            continue
        table.append({"span": name, "calls": len(rs),
                      "median_ms": statistics.median(r[2] for r in rs) * 1e3,
                      "median_self_ms": statistics.median(r[3] for r in rs) * 1e3,
                      "total_self_s": sum(r[3] for r in rs)})
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import checks
    import hostspeed
    import spans
    import workloads

    sizes = workloads.SIZES["tiny" if args.tiny else "default"]
    tracer = spans.Tracer() if args.trace else None
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work, sizes, tracer)
    rec = workloads.Recorder()
    reason = None
    result: dict = {"env": environment(args)}
    try:
        if tracer:
            tracer.install()
        wl.setup()
        setup_s = time.perf_counter() - T0
        # Set-up is scaled like the timed operations, by the reference
        # load timed right after it (median of three calls).
        wl.ref = statistics.median(hostspeed.reference() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "ref_s": wl.ref}))
            return 0
        if tracer:
            # Each traced round follows an untraced online pass; the tracing
            # overhead is the difference of the two frame_ms medians.
            plain = workloads.Recorder()

            def traced_round(r):
                tracer.uninstall()
                wl.tracer = None
                wl.online_pass(plain, -1 - r)
                tracer.install()
                wl.tracer = tracer
                wl.round(rec, r)

            result["rounds"] = run_rounds(traced_round, args.seconds)
            workloads.scaling_probe(tracer, sizes, args.seed)
            tracer.uninstall()
            result["tracing_overhead_ms"] = (statistics.median(rec.frame_ms)
                                             - statistics.median(plain.frame_ms))
        else:
            result["rounds"] = run_rounds(lambda r: wl.round(rec, r), args.seconds)
            result["setup_s_samples"] = setup_samples(args, (setup_s, wl.ref))
    except checks.CheckFailed as exc:
        reason = str(exc)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        reason = f"set-up sample failed: {exc!r}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if reason is None and rec.failed == 0:
        if tracer:
            stats = span_stats(tracer)
            metrics = layer_metrics(stats, wl)
            units = {k: v[0] for k, v in LAYERS.items()}
            result["spans"] = span_table(stats)
            result["missing_targets"] = tracer.missing
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, result["samples"] = end_to_end_metrics(
                rec, result["setup_s_samples"])
            result["nearest"] = nearest_summary(rec)
            result["wall"] = {k: statistics.median(v) for k, v in rec.wall.items()}
            result["wall"]["setup_s"] = statistics.median(
                s for s, _ in result["setup_s_samples"])
            result["raw"] = {"frame_ms": rec.frame_ms, "batch_s": rec.batch_s,
                             "wall_frame_ms": rec.wall["frame_ms"],
                             "wall_batch_s": rec.wall["batch_s"],
                             "nearest_us": rec.nearest_us}
            units = END_TO_END
    else:
        metrics, units = {}, {}
    correct = reason is None
    result["digests"] = wl.digests()
    result.update(correct=correct, reason=reason, attempted=rec.attempted,
                  failed=rec.failed, metrics=metrics)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    report(result, args, units)
    print(json.dumps({
        "correct": correct, "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct and rec.failed == 0 else 1


def report(result: dict, args, units: dict) -> None:
    """Human-readable summary, printed before the JSON line."""
    print(f"landsite benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  rounds={result.get('rounds')}")
    print("env " + json.dumps(result["env"]))
    if not result["correct"]:
        print(f"OUTPUT CHECK FAILED: {result['reason']}")
    print(f"operations attempted={result['attempted']} failed={result['failed']}")
    samples = result.get("samples", {})
    for name, value in result["metrics"].items():
        extra = f"  n={samples[name]}" if name in samples else ""
        moves = f"  -> {LAYERS[name][3]}" if name in LAYERS else ""
        print(f"  {name:32s} {value:14.4f} {units[name]:6s}{extra}{moves}")
    if "nearest" in result:
        n = result["nearest"]
        p90 = "" if n["p90_us"] is None else f", p90 {n['p90_us']:.3f} us"
        print(f"  nearest() (not gated): p50 {n['p50_us']:.3f} us{p90}, n={n['n']}")
    if "wall" in result:
        print("  unscaled wall medians: " + ", ".join(
            f"{k} {v:.4f}" for k, v in result["wall"].items()))
    if "setup_s_samples" in result:
        print("  setup_s samples (wall s, reference ms): " + ", ".join(
            f"{s:.3f} {ref * 1e3:.1f}" for s, ref in result["setup_s_samples"]))
    if "spans" in result:
        print(f"  {'span':28s} {'calls':>7s} {'median ms':>11s} "
              f"{'self ms':>11s} {'total self s':>13s}")
        for row in result["spans"]:
            print(f"  {row['span']:28s} {row['calls']:7d} {row['median_ms']:11.4f} "
                  f"{row['median_self_ms']:11.4f} {row['total_self_s']:13.4f}")
        print(f"  tracing overhead on frame_ms_p50: "
              f"{result['tracing_overhead_ms']:.3f} ms")
        if result["missing_targets"]:
            print("  missing wrapper targets: " + ", ".join(result["missing_targets"]))
        print(f"  spans written to {result['spans_file']}")


if __name__ == "__main__":
    sys.exit(main())
