"""collabnet benchmark: seeded syngen inputs, timed passes, correctness gate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed and sizes make the input; the
program sees only the generated files. Passes run closed-loop in a single
process (or as a chain of `collabnet` child processes on `cli-chain`). Every
output is checked (bench/gate.py). Each timing is the median of the
samples a run takes of it (see `typical`). Human-readable lines go to stdout
first; the last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
from a traced run with `--trace 1`. Provenance, spans and all figures are
also written to `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1612  # not used while the benchmark was built; for later claims
SETUPS = 4            # set-up repetitions, half before and half after the passes
PROBES = 6            # fresh-process probes for cli_import_s and interpreter start,
                      # half before and half after the passes
CHILD_TIMEOUT = 170   # seconds
REFERENCE_SHARE = 0.15  # on cli-chain, share of --seconds for each block of
                        # in-process passes, one before and one after the chain

WORKLOADS = {
    "battery-200": {
        "papers": 7_500, "countries": 200, "years": (2008, 2013), "mode": "inprocess",
        "why": "200-country snapshots make the statistics battery (metrics) about 80% "
               "of a pass on a small corpus; battery changes show here",
    },
    "cli-chain": {
        "papers": 10_000, "countries": 60, "years": (2008, 2013), "mode": "cli",
        "why": "17 collabnet child processes (ingest, 12 builds, stats, regress, 2 trends) "
               "pay interpreter start, import and file I/O on every call",
    },
}

COUNTS = (
    "syngen.papers", "corpus.records_in", "corpus.accepted", "corpus.rejected",
    "corpus.filter_scanned", "corpus.filter_returned", "netbuild.pair_increments",
    "netbuild.nodes", "netbuild.edges", "metrics.snapshots", "metrics.bfs_edge_visits",
    "impact.cells", "impact.excluded", "impact.observations", "lmm.fits",
    "lmm.fits_skipped", "lmm.boundary_fits", "lmm.n_obs", "lmm.n_groups",
    "longit.series", "cli.calls",
)


def metric_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for "end_to_end" and "per_layer", from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def typical(values) -> float:
    """The median of several timings of the same work.

    On a shared machine the processor runs the same work up to 1.5x faster
    in some spells than in others, and a spell lasts from a second to
    minutes (process CPU time rises with wall time, so this is not the
    process waiting to be scheduled). The fastest sample depends on whether
    a run caught a short fast spell; the median of many samples taken
    across the run follows the speed the run mostly had."""
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that has at
    least ten samples beyond it. With fewer than 21 samples that percentile
    would not lie above the median, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n >= 21 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def timed_probe(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0


def probes(n: int, trace: bool, env: dict) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes: bare interpreter start and, untraced,
    `import collabnet.cli`. Contention on a shared machine comes in bursts of
    a few seconds, so the probes are split between the start and the end of
    a run rather than taken in one burst."""
    interp, imports = [], []
    for _ in range(n):
        interp.append(timed_probe("pass", env))
        if not trace:
            imports.append(timed_probe("import collabnet.cli", env))
    return interp, imports


def provenance() -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                 text=True, timeout=30)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    import numpy
    import scipy
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------- set-up

def setup_once(cfg, inputs: Path):
    """Generate the corpus and write the program's inputs; returns the truth log."""
    from collabnet import syngen
    records, truth = syngen.generate(cfg)
    syngen.write_records(records, inputs / "raw.jsonl")
    fields = sorted(syngen.specialty_map_for(cfg).universe)
    with open(inputs / "map.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("journal,specialty\n" + "".join(f"Journal of {f},{f}\n" for f in fields))
    return truth


def set_up(spec: dict, seed: int, inputs: Path, trace: bool, count: int):
    """`count` identical set-ups; returns (times, traced syngen figures, truth)."""
    from collabnet import syngen
    cfg = syngen.GenConfig.default(seed=seed, n_countries=spec["countries"],
                                   n_papers=spec["papers"], years=spec["years"])
    times, traces, truth = [], [], None
    for _ in range(count):
        truth = None  # release the previous truth log before generating again
        if trace:
            tracer = spans.Tracer()
            tracer.install([syngen])
            try:
                t0 = time.perf_counter()
                truth = tracer.call("setup", "harness", setup_once, cfg, inputs)
                times.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            traces.append((tracer.self_times(), dict(tracer.counts)))
        else:
            t0 = time.perf_counter()
            truth = setup_once(cfg, inputs)
            times.append(time.perf_counter() - t0)
    return times, traces, truth


# ---------------------------------------------------------------- gate

class Ops:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def gate_inprocess(p: dict, tally, n_lines: int, recorded: dict | None, ops: Ops,
                   label: str = "") -> None:
    """Ingest, every snapshot, every fit and the trends/report stage of a pass."""
    import gate
    ingest = []
    if p["accepted"] + p["rejected"] != n_lines:
        ingest.append(f"{p['accepted']} + {p['rejected']} != {n_lines} input lines")
    if p["rejected"]:
        ingest.append(f"{p['rejected']} rejections on syngen input")
    ops.record(f"{label}ingest", ingest)
    for snap in p["snapshots"]:
        key = snap["slice"]
        want = tally.get(key, (Counter(), Counter()))
        ref = (recorded or {}).get(f"{key[0]}|{key[1]}")
        ops.record(f"{label}snapshot {key}",
                   gate.check_edges(snap["edges"], snap["strength"], want)
                   + gate.check_stats(snap["stats"], want[0], ref))
    fwci = gate.check_fwci(p["fwci_cells"])
    for group, n in p["n_obs"].items():
        fit = p["fits"].get(group)
        ops.record(f"{label}fit {group}",
                   fwci + (gate.check_fit(fit, n) if fit is not None else []))
    ops.record(f"{label}report", check_texts(p))


def check_texts(p: dict) -> list[str]:
    """Trends and change table agree with the pass's own stats rows."""
    rows = [s["stats"] for s in p["snapshots"]]
    want = sorted((r["specialty"], r["year"], r["nodes"], r["edges"]) for r in rows)
    got = sorted((r[0], int(r[1]), int(r[2]), int(r[3]))
                 for r in (line.split(",") for line in p["texts"]["trends.csv"].splitlines()[1:]))
    problems = [] if got == want else ["trends rows differ from the stats rows"]
    specialties = {r["specialty"] for r in rows}
    if not all(s in p["texts"]["table2.txt"] for s in specialties):
        problems.append("change table misses a specialty")
    if not p["fits"] or "N " not in p["texts"]["report.txt"]:
        problems.append("empty regression report")
    return problems


def gate_chain(run: dict, ref: dict, tally, n_lines: int, argvs: list[list[str]],
               ops: Ops) -> None:
    """Each of the 17 calls: exit code 0 and its outputs against the in-process
    reference pass and the truth tally."""
    import gate
    out = {k: v.decode("utf-8") for k, v in run["outputs"].items()}

    def text(name):
        return out.get(name, "")

    def opt(argv, flag):
        return argv[argv.index(flag) + 1]

    for call, argv in zip(run["calls"], argvs):
        cmd = call["command"]
        problems = [] if call["code"] == 0 else [f"exit code {call['code']}"]
        if cmd == "ingest":
            if len(text("corpus.jsonl").splitlines()) != n_lines:
                problems.append("corpus line count differs from the input")
            if text("corpus.jsonl.rejections.csv") != "id,reason\n":
                problems.append("rejections on syngen input")
        elif cmd == "build":
            key = (opt(argv, "--specialty"), int(opt(argv, "--year")))
            try:
                edges = gate.read_edgelist_csv(text(opt(argv, "--out")))
            except ValueError as exc:
                edges, problems = {}, problems + [f"unreadable edge list: {exc}"]
            problems += gate.check_edges(edges, None, tally.get(key, (Counter(), Counter())))
        elif cmd == "stats":
            if text("stats.csv") != ref["texts"]["stats.csv"]:
                problems.append("stats CSV differs from the in-process stats text")
        elif cmd == "regress":
            problems += gate.check_report_csv(text("report.csv"), ref["n_obs"])
            if text("report.txt") != ref["texts"]["report.txt"]:
                problems.append("report differs from the in-process report")
            if len(text("obs.csv").splitlines()) - 1 != ref["n_obs"]["All Fields"]:
                problems.append("observation CSV row count differs")
        elif cmd == "trends":
            name = opt(argv, "--out")
            if text(name) != ref["texts"][name]:
                problems.append(f"{name} differs from the in-process text")
        ops.record(f"call {cmd}", problems)


# ---------------------------------------------------------------- passes

def run_worker(mode: str, run_dir: Path, seconds: float, trace: bool, env: dict) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "passes.py"), "--mode", mode, "--dir", str(run_dir),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    with open(run_dir / "worker.pkl", "rb") as fh:
        return pickle.load(fh)  # written by our own worker above


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 recorded: dict | None = None) -> dict:
    """Set up, run, gate and summarise one workload; returns the result record."""
    import gate
    import passes

    run_dir = WORK / f"{name}-s{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "input"
    inputs.mkdir(parents=True)
    env = child_env()

    setup_times, setup_traces, truth = set_up(spec, seed, inputs, trace, SETUPS // 2)
    tally = gate.tally_truth(truth)
    del truth
    slices = sorted(tally)
    (inputs / "slices.json").write_text(json.dumps(slices))
    n_lines = spec["papers"]
    ops = Ops()
    e2e: dict[str, float] = {}
    digests: dict[str, set[str]] = {}
    chains: list[dict] = []

    early_interp, early_imports = probes(PROBES // 2, trace, env)

    if spec["mode"] == "inprocess":
        runs = run_worker("inprocess", run_dir, seconds, trace, env)
        for i, p in enumerate(runs):
            gate_inprocess(p, tally, n_lines, recorded, ops, label=f"pass {i}: ")
            digests.setdefault("pass", set()).add(json.dumps(p["texts"], sort_keys=True))
        untraced = [p for p in runs if not p["traced"]]
        e2e["pipeline_s"] = typical(p["wall"] for p in untraced)
        snapshot_samples = [p["snapshot_s"] for p in untraced]
        # after the first pass, so the figure does not depend on how many
        # passes fitted in the run
        e2e["peak_rss_mb"] = runs[0]["peak_rss_kb"] / 1024.0
    else:
        # In-process passes on the same input, before and (like the probes)
        # after the chain: the reference the chain's outputs must equal, and
        # the snapshot timings (a snapshot is an in-process measure; the
        # `build` calls are timed per layer).
        ref_seconds = 0.0 if trace else seconds * REFERENCE_SHARE
        refs = run_worker("inprocess", run_dir, ref_seconds, False, env)
        chains = passes.closed_loop(lambda: passes.subprocess_chain(run_dir, slices, env),
                                    0.0 if trace else seconds, False, None)
        if not trace:
            refs += run_worker("inprocess", run_dir, ref_seconds, False, env)
        for i, p in enumerate(refs):
            gate_inprocess(p, tally, n_lines, recorded, ops, label=f"in-process pass {i}: ")
            digests.setdefault("pass", set()).add(json.dumps(p["texts"], sort_keys=True))
        snapshot_samples = [p["snapshot_s"] for p in refs]
        for chain in chains:
            gate_chain(chain, refs[0], tally, n_lines, passes.chain_argvs(slices), ops)
            digests.setdefault("chain", set()).add(chain["digest"])
        calls = [c for chain in chains for c in chain["calls"]]
        e2e["pipeline_s"] = typical(chain["wall"] for chain in chains)
        e2e["peak_rss_mb"] = max(c["rss_kb"] for c in calls) / 1024.0
        runs = []
        if trace:
            runs = run_worker("cli", run_dir, seconds, True, env)
            for p in runs:
                for c in p["calls"]:
                    ops.record(f"in-process call {c['command']}",
                               [f"exit code {c['code']}"] if c["code"] else [])
                digests["chain"].add(p["digest"])

    # The median over snapshots of each snapshot's median time: the median of
    # the pooled samples would fall on the edge between two snapshots' clusters
    # of times, an extreme sample of one of them.
    e2e["snapshot_p50_s"] = typical([typical(times) for times in zip(*snapshot_samples)])
    value, pct, n = tail([t for times in snapshot_samples for t in times])
    e2e["snapshot_tail_s"] = value
    info = {"tail": {"percentile": pct, "samples": n}}

    # Like the probes, the set-ups are split between the start and the end.
    more_times, more_traces, _ = set_up(spec, seed, inputs, trace, SETUPS - SETUPS // 2)
    e2e["setup_s"] = typical(setup_times + more_times)
    setup_traces += more_traces
    interp, imports = probes(PROBES - PROBES // 2, trace, env)
    interp += early_interp
    imports += early_imports
    if imports:
        e2e["cli_import_s"] = typical(imports)
    info["interp_start_s"] = typical(interp)

    problems = [f"{kind} outputs differ between passes ({len(d)} digests)"
                for kind, d in digests.items() if len(d) != 1]
    layer: dict[str, float] = {}
    counts = None
    if trace:
        layer, counts, trace_problems = layer_metrics(runs, setup_traces, chains, e2e, info)
        problems += trace_problems
        layer["gate.ops_attempted"] = ops.attempted
        layer["gate.ops_failed"] = ops.failed
        layer["gate.op_fail_ratio"] = ops.failed / ops.attempted
        info["spans"] = [p["trace"]["spans"] for p in runs if p["traced"]]
    if not problems:
        problems += repeat_check(state_path(name, seed, spec["papers"]),
                                 {k: d.pop() for k, d in digests.items()}, counts)
    return {"e2e": e2e, "layer": layer, "ops": ops, "problems": problems, "info": info,
            "passes": len(chains or runs)}


def layer_metrics(runs: list[dict], setup_traces: list, chains: list[dict],
                  e2e: dict, info: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer durations (median over traced passes) and exact counts."""
    traced = [p for p in runs if p["traced"]]
    layer: dict[str, float] = {}
    for metric, names in spans.DURATIONS.items():
        layer[metric] = typical(sum(p["trace"]["self"].get(n, 0.0) for n in names)
                                for p in traced)
    for name in spans.LAYER_NAMES[1:]:
        layer[f"{name}.self_s"] = typical(p["trace"]["layers"].get(name, 0.0) for p in traced)
    for metric in ("syngen.generate_s", "syngen.serialize_s"):
        layer[metric] = typical(sum(times.get(n, 0.0) for n in spans.DURATIONS[metric])
                                for times, _ in setup_traces)
    layer["syngen.self_s"] = typical(
        sum(t for n, t in times.items() if n.startswith("syngen.")) for times, _ in setup_traces)
    layer["trace.pass_s"] = typical(p["wall"] for p in traced)
    layer["trace.untraced_pass_s"] = typical(p["wall"] for p in runs if not p["traced"])
    layer["trace.unattributed_s"] = typical(p["trace"]["self"].get("pass", 0.0) for p in traced)
    layer["trace.overhead_s"] = layer["trace.pass_s"] - layer["trace.untraced_pass_s"]

    calls = [c for chain in chains for c in chain["calls"]]
    for cmd in ("ingest", "build", "stats", "regress", "trends"):
        layer[f"cli.{cmd}_s"] = sum((c["wall"] for c in calls if c["command"] == cmd), 0.0)
    layer["cli.chain_s"] = e2e["pipeline_s"] if chains else 0.0
    layer["cli.startup_share"] = (1.0 - layer["trace.untraced_pass_s"] / e2e["pipeline_s"]
                                  if chains else 0.0)
    layer["cli.bytes_written"] = sum(len(b) for b in chains[0]["outputs"].values()) if chains else 0
    layer["cli.interp_start_s"] = info["interp_start_s"]

    problems = []
    per_pass = [p["trace"]["counts"] for p in traced]
    if any(c != per_pass[0] for c in per_pass):
        problems.append("counts differ between traced passes")
    if any(c != setup_traces[0][1] for _, c in setup_traces):
        problems.append("syngen counts differ between set-ups")
    counts = {**per_pass[0], **setup_traces[0][1]}
    for key in COUNTS:
        layer[key] = counts.get(key, 0)
    scanned = layer["corpus.filter_scanned"]
    layer["corpus.filter_yield"] = layer["corpus.filter_returned"] / scanned if scanned else 0.0
    return layer, counts, problems


def code_digest() -> str:
    """Digest of the program's and the benchmark's source files."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "collabnet").rglob("*"), *BENCH.glob("*.py")]):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def state_path(name: str, seed: int, papers: int) -> Path:
    """Where runs of this code on this workload, seed and size keep their state."""
    return WORK / "state" / f"{name}-s{seed}-{papers}-{code_digest()}.json"


def repeat_check(path: Path, digests: dict[str, str], counts: dict | None) -> list[str]:
    """Outputs and counts must repeat exactly between runs of the same code on
    the same seed; the first such run records them under .bench_work/state/."""
    path.parent.mkdir(parents=True, exist_ok=True)
    state = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    for kind, digest in digests.items():
        if state.setdefault(f"digest.{kind}", digest) != digest:
            problems.append(f"{kind} outputs differ from an earlier run on the same seed")
    if counts is not None:
        counts = dict(sorted(counts.items()))
        if state.setdefault("counts", counts) != counts:
            problems.append("counts differ from an earlier run on the same seed")
    path.write_text(json.dumps(state, sort_keys=True))
    return problems


# ---------------------------------------------------------------- output

def report(name: str, spec: dict, seed: int, seconds: float, trace: bool,
           result: dict, prov: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    ops = result["ops"]
    correct = ops.failed == 0 and not result["problems"]
    print(f"workload {name}: {spec['why']}")
    print(f"  seed {seed}, {spec['papers']} papers, {spec['countries']} countries, "
          f"years {','.join(map(str, spec['years']))}, {result['passes']} pass(es) "
          f"in about {seconds:g} s, trace {int(trace)}")
    print("  provenance " + json.dumps(prov, sort_keys=True))
    chosen = result["layer"] if trace else result["e2e"]
    units = metric_units()["per_layer" if trace else "end_to_end"]
    out_metrics = {}
    for metric in sorted(chosen):
        out_metrics[metric] = {"value": chosen[metric], "unit": units[metric]}
        note = "  (computed from input sizes)" if metric in spans.COMPUTED else ""
        print(f"  {metric} = {chosen[metric]:.6g} {units[metric]}{note}")
    tl = result["info"]["tail"]
    print(f"  snapshot_tail_s is p{tl['percentile']:.1f} of {tl['samples']} snapshot samples")
    print(f"  cli.interp_start_s = {result['info']['interp_start_s']:.6g} s")
    if trace:
        pass_s = result["layer"]["trace.pass_s"]
        shares = {layer: result["layer"][f"{layer}.self_s"] / pass_s
                  for layer in spans.LAYER_NAMES[1:]}
        print("  self-time share of the traced pass: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
        print(f"  corpus+netbuild+impact+lmm: "
              f"{sum(shares[k] for k in ('corpus', 'netbuild', 'impact', 'lmm')):.1%}")
    print(f"  operations: {ops.failed} failed of {ops.attempted} attempted "
          f"(op_fail_ratio {ops.failed / max(ops.attempted, 1):.6g})")
    for problem in ops.problems + result["problems"]:
        print(f"  PROBLEM {problem}")

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "config": {k: v for k, v in spec.items()}, "provenance": prov,
              "end_to_end": result["e2e"], "per_layer": result["layer"],
              "info": result["info"], "attempted": ops.attempted, "failed": ops.failed,
              "problems": ops.problems + result["problems"]}
    (results_dir / f"{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    return {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": out_metrics}


def load_recorded(name: str, seed: int, papers: int) -> dict | None:
    path = BENCH / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(f"{name}/{papers}/{seed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "collabnet" / "__init__.py").is_file():
        print(f"error: {SRC / 'collabnet'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import collabnet
    if Path(collabnet.__file__).resolve().parent != SRC / "collabnet":
        print(f"error: imported collabnet from {collabnet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    recorded = load_recorded(args.workload, args.seed, spec["papers"])
    result = run_workload(args.workload, spec, args.seed, args.seconds, bool(args.trace),
                          recorded)
    final = report(args.workload, spec, args.seed, args.seconds, bool(args.trace), result,
                   provenance())
    shutil.rmtree(WORK / f"{args.workload}-s{args.seed}", ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
