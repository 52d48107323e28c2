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
import hashlib
import json
import sys
from pathlib import Path

# Standard library only. syngen, metrics and lmm load numpy, and impact and
# longit serve one or two commands, so the commands that use them import them.
from . import __version__, corpus, netbuild
from .corpus import _csv_text, _number, _write_text


class Parser(argparse.ArgumentParser):
    # validation failures (including unknown flags) exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_manifest(args: argparse.Namespace, inputs: list[Path], outputs: list[Path]) -> None:
    options = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "version": __version__,
        "config_hash": hashlib.sha256(
            json.dumps(options, sort_keys=True, default=str).encode()).hexdigest(),
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
        "outputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs},
    }
    _write_text(f"{args.out}.manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read(read, path: str, *args, **kwargs):
    """`read(path, ...)`, with the path prefixed to a ValueError's message."""
    try:
        return read(path, *args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_output(args: argparse.Namespace, text: str, inputs: list[Path], *outputs: Path) -> None:
    """Write `text` to `--out` with the command's manifest, which also lists
    `outputs`, or to stdout for `-`."""
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
        _write_manifest(args, inputs, [Path(args.out), *outputs])


# ---------------------------------------------------------------- gen

def _known_keys(obj: dict, keys, where: str = "") -> None:
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"{where}unknown key {unknown[0]!r}")


def _citation_model(v: dict) -> syngen.CitationModel:
    from . import syngen

    means = {}
    for i, m in enumerate(v["means"]):
        if not isinstance(m["field"], str) or not isinstance(m["doctype"], str):
            raise ValueError(f"means[{i}]: field and doctype must be text")
        means[m["field"], _number(m["year"], int, f"means[{i}]: year"), m["doctype"]] = \
            _number(m["mean"], float, f"means[{i}]: mean")
        _known_keys(m, ("field", "year", "doctype", "mean"), f"means[{i}]: ")
    _known_keys(v, ("means", "dispersion"))
    return syngen.CitationModel(means, _number(v.get("dispersion", 1.5), float, "dispersion"))


def _gen_config(args: argparse.Namespace) -> syngen.GenConfig:
    from . import syngen

    if not args.config:
        return syngen.GenConfig.default(
            seed=args.seed,
            n_countries=args.n_countries,
            n_papers=args.n_papers,
            years=tuple(_number(y, int, "--years: year") for y in args.years.split(",")),
            attachment_strength=args.attachment_strength,
        )
    converters = {
        "n_countries": lambda v: _number(v, int, "value"),
        "n_papers": lambda v: _number(v, int, "value"),
        "years": lambda v: tuple(_number(y, int, f"[{i}]") for i, y in enumerate(v)),
        "countries_per_paper": lambda v: {
            _number(k, int, "size"): _number(p, float, f"[{k!r}]") for k, p in v.items()},
        "attachment_strength": lambda v: _number(v, float, "value"),
        "citation_model": _citation_model,
    }
    try:
        with open(args.config, encoding="utf-8-sig") as fh:  # an integer int() may refuse,
            # of 640 digits or more, reads as inf, as a long decimal does, for `_number`
            raw = json.load(fh, parse_int=lambda s: _number(s, int, "integer") if len(s) < 640
                            else float("inf"))
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
        if "seed" in raw:
            raise ValueError("seed: not a config key; pass --seed")
        _known_keys(raw, converters)
        fields = {}
        for key, convert in converters.items():
            try:
                fields[key] = convert(raw[key])
            except (TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"{key}: {exc}") from None
        cfg = syngen.GenConfig(seed=args.seed, **fields)
        cfg.validate()
    except KeyError as exc:
        raise ValueError(f"{args.config}: missing key {exc}") from None
    except ValueError as exc:  # bad JSON, a bad field or an invalid config
        raise ValueError(f"{args.config}: {exc}") from None
    return cfg


def cmd_gen(args: argparse.Namespace) -> int:
    from . import syngen

    # the defaults, set before the manifest hashes the options; --config gives all four
    for flag, default in {"n_countries": 60, "n_papers": 2000, "years": "2008,2013",
                          "attachment_strength": 0.8}.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.config:
            raise ValueError(f"{args.config}: --{flag.replace('_', '-')} cannot be combined "
                             "with --config")
    cfg = _gen_config(args)
    records, truth = syngen.generate(cfg)
    outputs: list[Path] = []
    if args.truth_out:
        outputs.append(_write_text(args.truth_out, syngen.truth_csv(truth)))
    if args.map_out:
        fields = sorted(syngen.specialty_map_for(cfg).universe)
        outputs.append(_write_text(args.map_out, _csv_text(
            [("journal", "specialty")] + [(f"Journal of {f}", f) for f in fields])))
    _write_output(args, syngen.records_jsonl(records), [], *outputs)
    print(f"generated {len(records)} records", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- ingest

def cmd_ingest(args: argparse.Namespace) -> int:
    smap = (corpus.SpecialtyMap.bundled() if args.map is None
            else _read(corpus.SpecialtyMap.from_csv, args.map))
    if args.input == "-":  # as from a file: a BOM dropped, a line not UTF-8 rejected
        sys.stdin.reconfigure(encoding="utf-8-sig", errors="surrogateescape")
    source = sys.stdin if args.input == "-" else args.input
    result = corpus.ingest(source, smap)
    result.save(args.out)
    rej_path = args.rejections or f"{args.out}.rejections.csv"
    corpus.write_rejections(result.rejections, rej_path)
    inputs = [] if args.input == "-" else [Path(args.input)]
    if args.map is not None:
        inputs.append(Path(args.map))
    _write_manifest(args, inputs, [Path(args.out), Path(rej_path)])
    print(f"accepted {len(result)} records, rejected {len(result.rejections)}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------- build

def _write_network(args: argparse.Namespace, net: netbuild.CollabNetwork) -> None:
    """`_write_output` of `net` in `--format`, else the format `--out`'s suffix names."""
    fmt = args.format or netbuild.FORMAT_SUFFIXES.get(Path(args.out).suffix.lower(), "csv")
    _write_output(args, netbuild.export(net, fmt, header=not args.no_header), [Path(args.input)])


def cmd_build(args: argparse.Namespace) -> int:
    corp = corpus.Corpus.load(args.input, only=(args.specialty, args.year))
    records = corpus.filter_records(corp, args.specialty, args.year)
    net = netbuild.build_network(records, isolate_policy=args.isolate_policy)
    net = netbuild.cosine_weights(net)
    _write_network(args, net)
    # arc counting reports each undirected link twice; the graph is unchanged
    edges = net.n_edges * (2 if args.count_mode == "arcs" else 1)
    print(f"{net.specialty or args.specialty} {net.year}: "
          f"{net.n_nodes} nodes, {edges} edges ({args.count_mode})", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- stats

def _load_network(path: str, specialty: str | None, year: int | None) -> netbuild.CollabNetwork:
    p = Path(path)
    if p.suffix.lower() == ".graphml":
        return netbuild.read_graphml(p)
    head, dash, tail = p.stem.rpartition("-")
    if dash and tail.isascii() and tail.isdigit():  # a file named <specialty>-<year>
        specialty = head if specialty is None else specialty
        year = _number(tail, int, "year") if year is None else year
    return netbuild.read_edgelist(p, specialty=specialty or "", year=year or 0)


def cmd_stats(args: argparse.Namespace) -> int:
    from . import metrics

    if (args.specialty is not None or args.year is not None) and len(args.input) > 1:
        raise ValueError("--specialty/--year label a single --input network")
    stats_list = [_read(lambda p: metrics.compute_stats(_load_network(p, args.specialty, args.year),
                                                        fit_powerlaw=args.powerlaw), path)
                  for path in args.input]  # names a network too small for a statistic too
    if args.all_years:
        text = metrics.format_stats_grid([s.to_json_obj() for s in stats_list])
    elif args.out.endswith(".json"):
        text = metrics.stats_json_text(stats_list)
    else:
        text = metrics.stats_csv_text(stats_list, args.fixed_decimals)
    _write_output(args, text, [Path(p) for p in args.input])
    return 0


# ---------------------------------------------------------------- regress

def cmd_regress(args: argparse.Namespace) -> int:
    from . import impact, lmm

    outputs: list[Path] = []
    if args.input.endswith(".csv"):
        if args.observations_out:
            raise ValueError("--observations-out needs a corpus input")
        observations = _read(impact.read_observations, args.input)
        fits = {args.specialty or "model": lmm.fit(observations)}
    else:
        corp = corpus.Corpus.load(args.input)
        scores, excluded = impact.attach_fwci(corp, impact.compute_baselines(corp))
        for rid, reason in excluded:
            print(f"excluded {rid}: {reason}", file=sys.stderr)
        if args.specialty is not None and args.specialty not in corp.specialty_labels:
            valid = ", ".join(sorted(corp.specialty_labels))
            raise ValueError(f"unknown specialty {args.specialty!r}; valid labels: {valid}")
        by_specialty: dict[str, list] = {}  # each list in id order, as the corpus is
        for rec in corp:
            by_specialty.setdefault(rec.specialty, []).append(rec)
        labels = sorted(by_specialty) if args.specialty is None else [args.specialty]
        slices = [(s, impact.build_observations(by_specialty.get(s, []), scores))
                  for s in labels]
        whole = (impact.build_observations(corp, scores)
                 if args.specialty is None or args.observations_out else None)
        if args.specialty is None:
            slices.append(("All Fields", whole))
        fits = {}
        for label, obs in slices:
            try:
                fits[label] = lmm.fit(obs)
            except ValueError as exc:
                print(f"skipping {label}: {exc}", file=sys.stderr)
        if not fits:
            raise ValueError("no slice could be fitted")
        if args.observations_out:
            impact.write_observations(whole, args.observations_out)
            outputs.append(Path(args.observations_out))
    if args.csv_out:
        outputs.append(_write_text(args.csv_out, lmm.report_csv(fits)))
    _write_output(args, lmm.report(fits), [Path(args.input)], *outputs)
    return 0


# ---------------------------------------------------------------- trends

def cmd_trends(args: argparse.Namespace) -> int:
    from . import longit

    rows = _read(longit.read_stats_csv, args.input)
    series = longit.series_from_stats(rows)
    text = longit.format_change_table(series) if args.table2 else longit.trends_csv(series)
    _write_output(args, text, [Path(args.input)])
    return 0


# ---------------------------------------------------------------- export

def cmd_export(args: argparse.Namespace) -> int:
    _write_network(args, _read(_load_network, args.input, args.specialty, args.year))
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
    p.add_argument("--n-countries", type=int)  # these four: defaults in cmd_gen
    p.add_argument("--n-papers", type=int)
    p.add_argument("--years")
    p.add_argument("--attachment-strength", type=float)
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
    p.add_argument("--count-mode", choices=("edges", "arcs"), default="edges")
    p.add_argument("--format", choices=netbuild.EXPORT_FORMATS)
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
    p.add_argument("--out", required=True, help="plain-text report path, or - for stdout")
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
    p.add_argument("--format", choices=netbuild.EXPORT_FORMATS)
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
    except (ValueError, KeyError, OSError) as exc:
        print(f"collabnet {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"collabnet {args.command}: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
