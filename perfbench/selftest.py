"""Self-test of the benchmark at tiny sizes (2 frames, a few hundred sites).

    python3 perfbench/selftest.py

Checks that every workload runs traced and untraced and reports exactly
the metrics ``BENCHMARK.json`` names, with their units; that the output
check rejects three injected faults (a site moved inside the dedup
radius, one changed candidate line, a swapped ``nearest()`` answer); and
that the benchmark fails without printing a result when the package is
not next to it. Exits 0 when every case passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the thread pinning before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES: list[str] = []


def case(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    case("BENCHMARK.json end_to_end matches run.py", e2e == run.END_TO_END,
         f"{e2e} vs {run.END_TO_END}")
    case("BENCHMARK.json per_layer matches run.py",
         layers == {k: v[0] for k, v in run.LAYERS.items()})
    case("BENCHMARK.json workloads match run.py",
         [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES))
    return {0: e2e, 1: layers}


def check_reports(expected: dict) -> None:
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            out = last_json(proc.stdout)
            name = f"{workload} trace={trace} reports every metric"
            if proc.returncode != 0 or out is None:
                case(name, False, f"exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            units = {k: v["unit"] for k, v in out["metrics"].items()}
            case(name, set(out) == {"correct", "attempted", "failed", "metrics"}
                 and out["correct"] and out["failed"] == 0
                 and out["attempted"] >= 1 and units == expected[trace],
                 json.dumps(out)[:300])


def run_in_process(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, last_json(out.getvalue())


@contextlib.contextmanager
def patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_faults() -> None:
    run.import_package()
    from landsite import pipeline, registry

    def expect_rejected(name, workload, because, seconds="1"):
        code, out = run_in_process(["--workload", workload, "--seed", "3",
                                    "--seconds", seconds, "--tiny"])
        with open(run.OUT / f"{workload}-seed3-trace0.json", encoding="utf-8") as f:
            reason = json.load(f)["reason"] or ""
        case(f"rejects {name}", code != 0 and out is not None
             and not out["correct"] and because in reason,
             f"exit {code}, reason {reason!r}")

    # A site moved inside the dedup radius of another stored site.
    insert = registry.SiteRegistry.insert_positions

    def insert_too_close(self, positions, scores, frame_id, timestamp):
        flags = insert(self, positions, scores, frame_id, timestamp)
        if len(self) and frame_id == 2:
            p = self.sites[0].position
            self._accept(registry.LandingSite(p + [0.1, 0.0, 0.0], 0.9,
                                              frame_id, timestamp))
        return flags

    with patched(registry.SiteRegistry, "insert_positions", insert_too_close):
        expect_rejected("a site inside the dedup radius", "registry-mission",
                        "dedup radius")

    # One changed line of candidates.jsonl on the second detect pass.
    write = pipeline.write_candidates_jsonl
    calls = []

    def write_one_line_changed(path, frame_results):
        write(path, frame_results)
        calls.append(path)
        if len(calls) == 2:
            lines = Path(path).read_text().splitlines(keepends=True)
            lines[len(lines) // 2] = lines[len(lines) // 2].replace(
                '"score": 0.', '"score": 1.', 1)
            Path(path).write_text("".join(lines))

    with patched(pipeline, "write_candidates_jsonl", write_one_line_changed):
        expect_rejected("one changed candidate line", "rubble",
                        "candidates.jsonl differs between passes", seconds="30")

    # nearest() answering with a site that is not the nearest.
    nearest = registry.SiteRegistry.nearest
    asked = []

    def nearest_swapped(self, query):
        asked.append(query)
        hit = nearest(self, query)
        if len(asked) == 7 and len(self) > 1:
            other = self.sites[1] if hit[0] is self.sites[0] else self.sites[0]
            return other, hit[1]
        return hit

    with patched(registry.SiteRegistry, "nearest", nearest_swapped):
        expect_rejected("a swapped nearest() answer", "registry-mission",
                        "brute force gives")


def check_without_package() -> None:
    """Only BENCHMARK.json and the benchmark: non-zero exit, no result line."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "rubble", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    case("fails without the package", proc.returncode != 0
         and last_json(proc.stdout) is None, f"exit {proc.returncode}")


def main() -> int:
    expected = check_spec()
    check_reports(expected)
    check_faults()
    check_without_package()
    print(f"{len(FAILURES)} failure(s)" if FAILURES else "all self-test cases passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
