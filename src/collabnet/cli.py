"""Command-line surface composing the analysis pipeline.

Subcommands: gen, ingest, build, stats, regress, trends, export. Every
stage reads and writes documented file formats (JSONL corpus, edge-list
CSV / GraphML / DOT networks, stats CSV, observation CSV), never mutates
its inputs, and writes a `<out>.manifest.json` digest record alongside each
output. All randomness enters through `gen --seed`; the analysis commands
are deterministic, so deleting outputs and rerunning reproduces identical
bytes.

Exit codes: 0 success, 1 validation / usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, corpus, impact, lmm, longit, metrics, netbuild, syngen


class CliError(ValueError):
    pass


class Parser(argparse.ArgumentParser):
    # validation failures (including unknown flags) exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    return _sha256_bytes(Path(path).read_bytes())


def _write_manifest(anchor: Path, command: str, options: dict,
                    inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config_hash": _sha256_bytes(
            json.dumps(options, sort_keys=True, default=str).encode()),
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": {str(p): _sha256_file(p) for p in outputs},
    }
    path = Path(str(anchor) + ".manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _options(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _write_text(path: str, text: str) -> Path:
    p = Path(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return p


# ---------------------------------------------------------------- gen

def _gen_config(args: argparse.Namespace) -> syngen.GenConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        means = {(m["field"], int(m["year"]), m["doctype"]): float(m["mean"])
                 for m in raw["citation_model"]["means"]}
        model = syngen.CitationModel(
            means=means, dispersion=float(raw["citation_model"].get("dispersion", 1.5)))
        cfg = syngen.GenConfig(
            seed=int(raw.get("seed", args.seed)),
            n_countries=int(raw["n_countries"]),
            n_papers=int(raw["n_papers"]),
            years=tuple(int(y) for y in raw["years"]),
            countries_per_paper={int(k): float(v)
                                 for k, v in raw["countries_per_paper"].items()},
            attachment_strength=float(raw["attachment_strength"]),
            citation_model=model,
        )
    else:
        cfg = syngen.GenConfig.default(
            seed=args.seed,
            n_countries=args.n_countries,
            n_papers=args.n_papers,
            years=tuple(int(y) for y in args.years.split(",")),
            attachment_strength=args.attachment_strength,
        )
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _gen_config(args)
    records, truth = syngen.generate(cfg)
    text = syngen.records_jsonl(records)
    outputs: list[Path] = []
    if args.out == "-":
        sys.stdout.write(text)
    else:
        outputs.append(_write_text(args.out, text))
    if args.truth_out:
        outputs.append(_write_text(args.truth_out, syngen.truth_csv(truth)))
    if args.map_out:
        smap = syngen.specialty_map_for(cfg)
        rows = ["journal,specialty"] + [
            f"Journal of {f},{f}" for f in sorted(smap.universe)]
        outputs.append(_write_text(args.map_out, "\n".join(rows) + "\n"))
    if args.out != "-":
        _write_manifest(Path(args.out), "gen", _options(args), [], outputs)
    print(f"generated {len(records)} records", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- ingest

def cmd_ingest(args: argparse.Namespace) -> int:
    smap = (corpus.SpecialtyMap.bundled() if args.map is None
            else corpus.SpecialtyMap.from_csv(args.map))
    source = sys.stdin if args.input == "-" else args.input
    result = corpus.ingest(source, smap)
    result.save(args.out)
    rej_path = args.rejections or f"{args.out}.rejections.csv"
    corpus.write_rejections(result.rejections, rej_path)
    inputs = [] if args.input == "-" else [Path(args.input)]
    if args.map is not None:
        inputs.append(Path(args.map))
    _write_manifest(Path(args.out), "ingest", _options(args), inputs,
                    [Path(args.out), Path(rej_path)])
    print(f"accepted {len(result)} records, rejected {len(result.rejections)}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------- build

def _format_from_out(out: str, fmt: str | None) -> str:
    if fmt:
        return "edgelist_csv" if fmt == "csv" else fmt
    suffix = Path(out).suffix.lower()
    if suffix == ".graphml":
        return "graphml"
    if suffix in (".dot", ".gv"):
        return "dot"
    return "edgelist_csv"


def cmd_build(args: argparse.Namespace) -> int:
    corp = corpus.Corpus.load(args.input)
    records = corpus.filter_records(corp, args.specialty, args.year)
    net = netbuild.build_network(records, isolate_policy=args.isolate_policy,
                                 count_mode=args.count_mode)
    net = netbuild.cosine_weights(net)
    fmt = _format_from_out(args.out, args.format)
    _write_text(args.out, netbuild.export(net, fmt, header=not args.no_header))
    _write_manifest(Path(args.out), "build", _options(args),
                    [Path(args.input)], [Path(args.out)])
    print(f"{net.specialty or args.specialty} {net.year}: "
          f"{net.n_nodes} nodes, {net.reported_edge_count} edges ({net.count_mode})",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------- stats

def _load_network(path: str, specialty: str | None, year: int | None) -> netbuild.CollabNetwork:
    p = Path(path)
    if p.suffix.lower() == ".graphml":
        net = netbuild.read_graphml(p)
        return net
    spec, yr = specialty, year
    if spec is None or yr is None:
        stem = p.stem
        if "-" in stem:
            head, _, tail = stem.rpartition("-")
            if tail.isdigit():
                spec = spec if spec is not None else head
                yr = yr if yr is not None else int(tail)
    return netbuild.read_edgelist(p, specialty=spec or "", year=yr or 0)


def cmd_stats(args: argparse.Namespace) -> int:
    if (args.specialty is not None or args.year is not None) and len(args.input) > 1:
        raise CliError("--specialty/--year label a single --input network")
    stats_list = []
    for path in args.input:
        net = _load_network(path, args.specialty, args.year)
        stats_list.append(metrics.compute_stats(net, fit_powerlaw=args.powerlaw))
    if args.all_years:
        rows = metrics.read_stats_csv(
            metrics.stats_csv_text(stats_list, args.fixed_decimals).splitlines())
        text = metrics.format_stats_grid(rows)
    elif args.out.endswith(".json"):
        text = metrics.stats_json_text(stats_list)
    else:
        text = metrics.stats_csv_text(stats_list, args.fixed_decimals)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        _write_manifest(Path(args.out), "stats", _options(args),
                        [Path(p) for p in args.input], [Path(args.out)])
    return 0


# ---------------------------------------------------------------- regress

def _fits_from_corpus(corp: corpus.Corpus, scores: dict[str, float],
                      specialty: str | None) -> dict[str, lmm.LmmFit]:
    fits: dict[str, lmm.LmmFit] = {}
    if specialty is not None:
        if specialty not in corp.specialty_labels:
            valid = ", ".join(sorted(corp.specialty_labels))
            raise CliError(f"unknown specialty {specialty!r}; valid labels: {valid}")
        slices = [(specialty, [r for r in corp if r.specialty == specialty])]
    else:
        present = sorted({r.specialty for r in corp})
        slices = [(s, [r for r in corp if r.specialty == s]) for s in present]
        slices.append(("All Fields", list(corp)))
    for label, records in slices:
        observations = impact.build_observations(records, scores)
        try:
            fits[label] = lmm.fit(observations)
        except ValueError as exc:
            print(f"skipping {label}: {exc}", file=sys.stderr)
    if not fits:
        raise CliError("no slice had enough observations to fit")
    return fits


def cmd_regress(args: argparse.Namespace) -> int:
    outputs: list[Path] = []
    if args.input.endswith(".csv"):
        if args.observations_out:
            raise CliError("--observations-out needs a corpus input")
        observations = impact.read_observations(args.input)
        fits = {args.specialty or "model": lmm.fit(observations)}
    else:
        corp = corpus.Corpus.load(args.input)
        scores, excluded = impact.attach_fwci(corp, impact.compute_baselines(corp))
        for rid, reason in excluded:
            print(f"excluded {rid}: {reason}", file=sys.stderr)
        fits = _fits_from_corpus(corp, scores, args.specialty)
        if args.observations_out:
            obs = impact.build_observations(list(corp), scores)
            impact.write_observations(obs, args.observations_out)
            outputs.append(Path(args.observations_out))
    outputs.insert(0, _write_text(args.out, lmm.report(fits)))
    if args.csv_out:
        outputs.append(_write_text(args.csv_out, lmm.report_csv(fits)))
    _write_manifest(Path(args.out), "regress", _options(args),
                    [Path(args.input)], outputs)
    return 0


# ---------------------------------------------------------------- trends

def cmd_trends(args: argparse.Namespace) -> int:
    rows = metrics.read_stats_csv(args.input)
    series = longit.series_from_stats(rows)
    text = longit.format_change_table(series) if args.table2 else longit.trends_csv(series)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        _write_manifest(Path(args.out), "trends", _options(args),
                        [Path(args.input)], [Path(args.out)])
    return 0


# ---------------------------------------------------------------- export

def cmd_export(args: argparse.Namespace) -> int:
    net = _load_network(args.input, args.specialty, args.year)
    fmt = _format_from_out(args.out, args.format)
    _write_text(args.out, netbuild.export(net, fmt, header=not args.no_header))
    _write_manifest(Path(args.out), "export", _options(args),
                    [Path(args.input)], [Path(args.out)])
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> Parser:
    parser = Parser(prog="collabnet",
                    description="International collaboration network analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="records JSONL path, or - for stdout")
    p.add_argument("--truth-out", help="ground-truth draw log CSV")
    p.add_argument("--map-out", help="matching journal,specialty CSV")
    p.add_argument("--config", help="full generator config JSON")
    p.add_argument("--n-countries", type=int, default=60)
    p.add_argument("--n-papers", type=int, default=2000)
    p.add_argument("--years", default="2008,2013")
    p.add_argument("--attachment-strength", type=float, default=0.8)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", help="validate records and persist the corpus")
    p.add_argument("--input", required=True, help="records JSONL, or - for stdin")
    p.add_argument("--map", help="journal,specialty CSV (default: bundled list)")
    p.add_argument("--out", required=True, help="corpus JSONL path")
    p.add_argument("--rejections", help="rejection report CSV (default <out>.rejections.csv)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="build one (specialty, year) network")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--specialty", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--isolate-policy", choices=netbuild.ISOLATE_POLICIES, default="drop")
    p.add_argument("--count-mode", choices=netbuild.COUNT_MODES, default="edges")
    p.add_argument("--format", choices=("graphml", "dot", "csv"))
    p.add_argument("--no-header", action="store_true", help="omit the edge-list CSV header")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="network statistics battery")
    p.add_argument("--input", required=True, nargs="+",
                   help="network files (edge-list CSV or GraphML)")
    p.add_argument("--out", required=True, help="stats CSV path, or - for stdout")
    p.add_argument("--specialty", help="label for a single unlabeled input")
    p.add_argument("--year", type=int, help="label for a single unlabeled input")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--fixed-decimals", action="store_true",
                   help="4-decimal fixed formatting for table reproduction")
    p.add_argument("--powerlaw", action="store_true",
                   help="fit the degree-distribution power-law exponent")
    p.add_argument("--all-years", action="store_true",
                   help="write a measure-by-year grid instead of CSV rows")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("regress", help="mixed-effects regression of log impact")
    p.add_argument("--input", required=True,
                   help="corpus JSONL or observations CSV")
    p.add_argument("--specialty", help="restrict a corpus input to one specialty")
    p.add_argument("--out", required=True, help="plain-text report path")
    p.add_argument("--csv-out", help="long-format CSV report")
    p.add_argument("--observations-out", help="write the observation CSV (corpus input)")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("trends", help="growth and convergence across years")
    p.add_argument("--input", required=True, help="stats CSV")
    p.add_argument("--out", required=True, help="trends CSV path, or - for stdout")
    p.add_argument("--table2", action="store_true",
                   help="render the size-measures change table instead of CSV")
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("export", help="convert a network file between formats")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("graphml", "dot", "csv"))
    p.add_argument("--specialty", help="label for an unlabeled edge-list input")
    p.add_argument("--year", type=int, help="label for an unlabeled edge-list input")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, OSError) as exc:
        print(f"collabnet {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"collabnet {args.command}: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
