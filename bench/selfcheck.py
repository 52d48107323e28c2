"""Self-check of the benchmark harness. Slow (about two minutes), so it is
not part of the test suite; run it after changing anything under bench/:

    python3 bench/selfcheck.py                     # run the checks
    python3 bench/selfcheck.py --record-reference  # rewrite bench/reference.json

1. Every workload at a tiny size (2k papers, 60 countries), untraced and
   traced, passes the gate and emits exactly the metrics BENCHMARK.json
   names, with their units. A second traced run on the same seed repeats
   every count and output digest.
2. The gate rejects planted errors: one edge dropped from the truth tally,
   and a betweenness centralization perturbed by 1e-6 (relative).
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

The reference file holds betweenness centralization, average local
clustering and alpha per snapshot for the default seed of every workload
(full and tiny size), as computed by the library when it was recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {"papers": 2000, "countries": 60}
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny(name: str) -> dict:
    return {**run.WORKLOADS[name], **TINY}


def set_up_once(name: str, spec: dict, seed: int) -> tuple[Path, list, dict]:
    """Inputs for one in-process pass; returns (input dir, slices, tally)."""
    import gate
    from collabnet import syngen
    inputs = run.WORK / f"selfcheck-{name}-{spec['papers']}" / "input"
    shutil.rmtree(inputs.parent, ignore_errors=True)
    inputs.mkdir(parents=True)
    cfg = syngen.GenConfig.default(seed=seed, n_countries=spec["countries"],
                                   n_papers=spec["papers"], years=spec["years"])
    tally = gate.tally_truth(run.setup_once(cfg, inputs))
    return inputs, sorted(tally), tally


def one_pass(inputs: Path, slices) -> dict:
    import passes
    return passes.inprocess_pass(inputs / "raw.jsonl", inputs / "map.csv", slices)


def check_runs(expected: dict) -> None:
    for name in run.WORKLOADS:
        spec = tiny(name)
        run.state_path(name, run.DEFAULT_SEED, spec["papers"]).unlink(missing_ok=True)
        recorded = run.load_recorded(name, run.DEFAULT_SEED, spec["papers"])
        check(recorded is not None, f"{name}: recorded reference values exist")
        for trace in (False, True, True):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                result = run.run_workload(name, spec, run.DEFAULT_SEED, 1.0, trace, recorded)
                final = run.report(name, spec, run.DEFAULT_SEED, 1.0, trace, result, {})
            label = f"{name} trace {int(trace)}"
            check(final["correct"] and final["failed"] == 0 and final["attempted"] > 0,
                  f"{label}: gate passes ({final['attempted']} operations)"
                  + "".join(f"\n    {line}" for line in out.getvalue().splitlines()
                            if "PROBLEM" in line))
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            want = expected["per_layer" if trace else "end_to_end"]
            check(got == want, f"{label}: emits every named metric with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in final["metrics"].values()),
                  f"{label}: every value is a number")
        shutil.rmtree(run.WORK / f"{name}-s{run.DEFAULT_SEED}", ignore_errors=True)


def check_planted_errors() -> None:
    spec = tiny("battery-200")
    inputs, slices, tally = set_up_once("battery-200", spec, run.DEFAULT_SEED)
    p = one_pass(inputs, slices)

    def failed(pass_result, tally_) -> int:
        ops = run.Ops()
        run.gate_inprocess(pass_result, tally_, spec["papers"], None, ops)
        return ops.failed

    check(failed(p, tally) == 0, "clean pass: gate reports no failure")
    dropped = copy.deepcopy(tally)
    pairs = dropped[slices[0]][0]
    del pairs[next(iter(pairs))]
    check(failed(p, dropped) == 1, "one edge dropped from a tally: that snapshot fails")
    perturbed = copy.deepcopy(p)
    stats = perturbed["snapshots"][3]["stats"]
    stats["betweenness_centralization"] *= 1 + 1e-6
    check(failed(perturbed, tally) == 1, "betweenness perturbed by 1e-6: that snapshot fails")
    shutil.rmtree(inputs.parent, ignore_errors=True)


def check_without_program() -> None:
    bare = run.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "battery-200",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          f"without the program: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def record_reference() -> None:
    reference = {}
    for name in run.WORKLOADS:
        for spec in (run.WORKLOADS[name], tiny(name)):
            inputs, slices, _ = set_up_once(name, spec, run.DEFAULT_SEED)
            rows = {f"{s['slice'][0]}|{s['slice'][1]}": [
                s["stats"]["betweenness_centralization"], s["stats"]["avg_local_clustering"],
                s["stats"]["alpha"]] for s in one_pass(inputs, slices)["snapshots"]}
            reference[f"{name}/{spec['papers']}/{run.DEFAULT_SEED}"] = rows
            shutil.rmtree(inputs.parent, ignore_errors=True)
            print(f"recorded {name} at {spec['papers']} papers")
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True)
                                              + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    if args.record_reference:
        record_reference()
        return 0
    expected = run.metric_units()
    check_planted_errors()
    check_without_program()
    check_runs(expected)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
