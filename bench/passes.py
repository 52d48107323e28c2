"""One pass of each workload: the in-process pipeline and the CLI chain.

Run as a script, this is the worker process that executes passes in a
closed loop (one pass starts when the previous one ends) and pickles what
it measured and produced to `<dir>/worker.pkl`, with the process's peak
resident memory after each pass. A separate process keeps that figure free
of the benchmark's set-up and checks:

    python3 bench/passes.py --mode inprocess|cli --dir DIR --seconds S --trace 0|1

`DIR` holds `input/raw.jsonl`, `input/map.csv` and `input/slices.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from collabnet import cli, corpus, countries, impact, lmm, longit, metrics, netbuild

ALL_FIELDS = "All Fields"
TRACED_MODULES = (corpus, countries, netbuild, metrics, impact, lmm, longit, cli)
CLI = [sys.executable, "-m", "collabnet.cli"]


def inprocess_pass(raw: Path, map_path: Path, slices: list[tuple[str, int]]) -> dict:
    """The analysis through the public API, timed; returns what it produced."""
    t0 = time.perf_counter()
    smap = corpus.SpecialtyMap.from_csv(map_path)
    corp = corpus.ingest(raw, smap)
    snapshots = []
    for specialty, year in slices:
        ts = time.perf_counter()
        net = netbuild.build_network(corpus.filter_records(corp, specialty, year))
        net = netbuild.cosine_weights(net)
        stats = metrics.compute_stats(net, fit_powerlaw=True)
        snapshots.append((time.perf_counter() - ts, net, stats))
    stats_text = metrics.stats_csv_text(s for _, _, s in snapshots)
    series = longit.series_from_stats(metrics.read_stats_csv(stats_text.splitlines()))
    trends = longit.trends_csv(series)
    table = longit.format_change_table(series)
    baselines = impact.compute_baselines(corp)
    scores, excluded = impact.attach_fwci(corp, baselines)
    records = list(corp)
    by_specialty: dict[str, list] = {}
    for rec in records:
        by_specialty.setdefault(rec.specialty, []).append(rec)
    groups = [(s, by_specialty[s]) for s in sorted(by_specialty)] + [(ALL_FIELDS, records)]
    fits, n_obs, skipped = {}, {}, []
    for label, recs in groups:
        observations = impact.build_observations(recs, scores)
        n_obs[label] = len(observations)
        try:
            fits[label] = lmm.fit(observations)
        except ValueError as exc:  # too few observations, as the CLI skips it
            skipped.append((label, str(exc)))
    report = lmm.report(fits)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "snapshot_s": [t for t, _, _ in snapshots],
        "accepted": len(corp), "rejected": len(corp.rejections),
        "snapshots": [{
            "slice": (net.specialty, net.year),
            "edges": {k: (e.copub_count, e.cosine) for k, e in net.edges.items()},
            "strength": dict(net.node_strength),
            "stats": stats.to_json_obj(),
        } for _, net, stats in snapshots],
        "texts": {"stats.csv": stats_text, "trends.csv": trends,
                  "table2.txt": table, "report.txt": report},
        "fwci_cells": fwci_cell_means(records, scores, baselines),
        "excluded": len(excluded),
        "fits": {label: {"beta": [float(b) for b in f.beta],
                         "se": [float(s) for s in f.se],
                         "psi": f.psi, "sigma2": f.sigma2, "sigma_u2": f.sigma_u2,
                         "n": f.n, "n_groups": f.n_groups}
                 for label, f in fits.items()},
        "n_obs": n_obs, "skipped": skipped,
    }


def fwci_cell_means(records, scores: dict[str, float], baselines) -> list[float]:
    """Mean score of every usable (field, year, doctype) cell."""
    sums: dict = {}
    for rec in records:
        key = (rec.field, rec.year, rec.doctype)
        cell = baselines.get(key)
        if cell is not None and cell.usable:
            total, n = sums.get(key, (0.0, 0))
            sums[key] = (total + scores[rec.id], n + 1)
    return [total / n for total, n in sums.values()]


# ---------------------------------------------------------------- CLI chain

def chain_argvs(slices: list[tuple[str, int]]) -> list[list[str]]:
    """The 17-call chain, run from `<dir>/chain` with inputs in `<dir>/input`."""
    nets = [f"nets/{s}-{y}.csv" for s, y in slices]
    argvs = [["ingest", "--input", "../input/raw.jsonl", "--map", "../input/map.csv",
              "--out", "corpus.jsonl"]]
    for (specialty, year), path in zip(slices, nets):
        argvs.append(["build", "--input", "corpus.jsonl", "--specialty", specialty,
                      "--year", str(year), "--out", path])
    argvs.append(["stats", "--input", *nets, "--out", "stats.csv",
                  "--powerlaw", "--threads", "2"])
    argvs.append(["regress", "--input", "corpus.jsonl", "--out", "report.txt",
                  "--csv-out", "report.csv", "--observations-out", "obs.csv"])
    argvs.append(["trends", "--input", "stats.csv", "--out", "trends.csv"])
    argvs.append(["trends", "--input", "stats.csv", "--out", "table2.txt", "--table2"])
    return argvs


def fresh_chain_dir(workdir: Path) -> Path:
    chain = workdir / "chain"
    shutil.rmtree(chain, ignore_errors=True)
    (chain / "nets").mkdir(parents=True)
    return chain


def chain_outputs(chain: Path) -> dict[str, bytes]:
    return {str(p.relative_to(chain)): p.read_bytes()
            for p in sorted(chain.rglob("*")) if p.is_file() and p.name != "stderr.txt"}


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name] + b"\0")
    return h.hexdigest()


def run_subprocess(argv: list[str], cwd: Path, env: dict) -> tuple[float, int, int]:
    """(wall seconds, exit code, peak RSS in KiB) of one child process."""
    with open(cwd / "stderr.txt", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def subprocess_chain(workdir: Path, slices, env: dict) -> dict:
    """One pass of the chain as `collabnet` child processes."""
    chain = fresh_chain_dir(workdir)
    calls = []
    t0 = time.perf_counter()
    for argv in chain_argvs(slices):
        wall, code, rss = run_subprocess(CLI + argv, chain, env)
        calls.append({"command": argv[0], "wall": wall, "code": code, "rss_kb": rss})
    wall = time.perf_counter() - t0
    outputs = chain_outputs(chain)
    return {"wall": wall, "calls": calls, "outputs": outputs, "digest": digest(outputs)}


def inprocess_chain(workdir: Path, slices) -> dict:
    """The same chain with `cli.main` called in this process."""
    chain = fresh_chain_dir(workdir)
    calls = []
    here = os.getcwd()
    os.chdir(chain)
    try:
        with open("stderr.txt", "a", encoding="utf-8") as err, \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            for argv in chain_argvs(slices):
                tc = time.perf_counter()
                code = cli.main(argv)
                calls.append({"command": argv[0], "wall": time.perf_counter() - tc,
                              "code": code})
            wall = time.perf_counter() - t0
    finally:
        os.chdir(here)
    outputs = chain_outputs(chain)
    return {"wall": wall, "calls": calls, "digest": digest(outputs),
            "bytes_written": sum(len(b) for b in outputs.values())}


# ---------------------------------------------------------------- worker

def warm_up(raw: Path, map_path: Path, slices) -> None:
    """Exercise every code path once on a small prefix of the input, so lazy
    imports and first-call set-up are not charged to the first timed pass."""
    with open(raw, encoding="utf-8") as fh:
        head = [next(fh) for _ in range(2000)]
    corp = corpus.ingest(head, corpus.SpecialtyMap.from_csv(map_path))
    net = netbuild.cosine_weights(netbuild.build_network(
        corpus.filter_records(corp, *slices[0])))
    metrics.compute_stats(net, fit_powerlaw=True)
    scores, _ = impact.attach_fwci(corp, impact.compute_baselines(corp))
    lmm.report({ALL_FIELDS: lmm.fit(impact.build_observations(list(corp), scores))})


def closed_loop(one_pass, seconds: float, trace: bool, tracer_factory) -> list[dict]:
    """Run passes back to back while the next one is expected to end within
    `seconds`; at least one pass. With tracing, untraced and traced passes
    alternate (at least one of each) after a discarded pass, so that both
    kinds run warm and their difference is the tracing overhead."""
    if trace:
        one_pass()
    results = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(results) % 2 == 1
        if traced:
            tracer = tracer_factory()
            try:
                result = tracer.call("pass", "harness", one_pass)
            finally:
                tracer.uninstall()
            result["trace"] = {"spans": tracer.spans, "counts": dict(tracer.counts),
                               "self": tracer.self_times(),
                               "layers": tracer.layer_self_times()}
        else:
            result = one_pass()
        result["traced"] = traced
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results.append(result)
        elapsed = time.perf_counter() - t0
        need = 2 if trace else 1
        if len(results) >= need and elapsed + results[-1]["wall"] > seconds:
            return results


def main(argv: list[str] | None = None) -> int:
    from spans import Tracer  # bench/spans.py, beside this file

    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("inprocess", "cli"), required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs = args.dir / "input"
    raw, map_path = inputs / "raw.jsonl", inputs / "map.csv"
    slices = [tuple(s) for s in json.loads((inputs / "slices.json").read_text())]
    warm_up(raw, map_path, slices)
    if args.mode == "inprocess":
        def one_pass():
            return inprocess_pass(raw, map_path, slices)
    else:
        def one_pass():
            return inprocess_chain(args.dir, slices)

    def tracer_factory():
        tracer = Tracer()
        tracer.install(TRACED_MODULES)
        return tracer

    passes = closed_loop(one_pass, args.seconds, bool(args.trace), tracer_factory)
    with open(args.dir / "worker.pkl", "wb") as fh:
        pickle.dump(passes, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
