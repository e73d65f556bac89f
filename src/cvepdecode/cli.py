"""Command-line front end.

Subcommands: codes, simulate, decode, curve, sweep, stats. Results go to
--out (or stdout); diagnostics go to stderr. Exit codes: 0 success,
1 usage, 2 data error, 3 numerical failure. Every run with an --out file
writes a reproducibility stanza next to it (<out>.meta.json).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np
import scipy

from . import __version__
from .archive import read_archive, write_archive
from .codegen import default_code_set, load_codes
from .errors import DataError, DegenerateSample, NumericalError
from .evaluate import (
    ALPHA,
    CURVE_CSV_HEADER,
    METHOD_TAGS,
    SWEEP_CSV_HEADER,
    bandpass_sweep,
    curve_csv_rows,
    decode_session,
    decoding_curve,
    filtered_session,
    sweep_csv_rows,
    wilcoxon_one_sided,
)
from .sigproc import TARGET_FS
from .simulate import ForwardModel, synthesize_session

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    #: subcommand name -> its parser, set on the top-level parser
    commands: dict[str, "_Parser"]

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cvepdecode", description=__doc__)
    parser.add_argument("--config", help="JSON file with default flag values; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="emit the modulated stimulus code subset")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("simulate", help="write a synthetic session archive")
    p.add_argument("--snr", type=float, default=math.inf,
                   help="signal-to-noise ratio in dB (inf = noiseless, -inf = pure noise)")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", choices=["white", "pink"], default="white")
    p.add_argument("--duration", type=float, default=31.5)
    p.add_argument("--n-codes", type=int, default=20)
    p.add_argument("--codes", dest="codes_file", help="read codes from file instead")
    p.add_argument("--out", required=True)

    p = sub.add_parser("decode", help="per-trial predictions for one method")
    p.add_argument("--method", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--duration", type=float, help="seconds decided (default: the trial length)")
    p.add_argument("--out", help="predictions CSV (default: stdout)")

    p = sub.add_parser("curve", help="decoding curve over trial durations")
    p.add_argument("--method", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="curve CSV (default: stdout)")

    p = sub.add_parser("sweep", help="bandpass cutoff sweep")
    p.add_argument("--axis", choices=["highpass", "lowpass"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--methods", default=",".join(METHOD_TAGS))
    p.add_argument("--out", help="sweep CSV (default: stdout)")

    p = sub.add_parser("stats", help="one-sided paired Wilcoxon between two curves")
    p.add_argument("--a", required=True, help="curve CSV, tested as the larger side")
    p.add_argument("--b", required=True)
    p.add_argument("--out", help="JSON report (default: stdout)")
    parser.commands = sub.choices
    return parser


def _flags(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The value-taking options of a parser, keyed by flag name without its
    dashes and with '-' read as '_' (--n-codes is n_codes)."""
    return {
        flag.lstrip("-").replace("-", "_"): action
        for action in parser._actions
        if action.nargs is None
        for flag in action.option_strings
    }


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse the command line. With --config, each value of the JSON object
    whose key names a flag of the subcommand ('-' or '_' alike) becomes
    that flag, placed before the flags given, so a flag on the command line
    wins. Keys naming a flag of another subcommand and null values are
    ignored; a key naming no flag, or a value the flag's type or choices
    reject, is a data error."""
    split = _Parser(add_help=False)
    split.add_argument("--config")
    split.add_argument("command", nargs="?")
    split.add_argument("flags", nargs=argparse.REMAINDER)
    head, _ = split.parse_known_args(argv)
    if not head.config or head.command not in parser.commands:
        return parser.parse_args(argv)
    try:
        with open(head.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"unreadable config file: {exc}") from exc
    if not isinstance(config, dict):
        raise DataError("config file must hold a JSON object")
    known = set().union(*(_flags(p) for p in parser.commands.values()))
    unknown = sorted(k for k in config if k.replace("-", "_") not in known)
    if unknown:
        raise DataError(f"config keys name no option: {', '.join(unknown)}")
    options = _flags(parser.commands[head.command])
    from_config = [
        f"{options[name].option_strings[-1]}={value}"
        for key, value in config.items()
        if (name := key.replace("-", "_")) in options and value is not None
    ]
    # each value is checked on its own, so that a missing required flag
    # stays a usage error and only a rejected value is a data error
    check = _Parser(add_help=False)
    for action in set(options.values()):
        check.add_argument(*action.option_strings, type=action.type, choices=action.choices)
    try:
        check.parse_args(from_config)
    except UsageError as exc:
        raise DataError(f"config value rejected: {exc}") from exc
    return parser.parse_args(argv[: len(argv) - len(head.flags)] + from_config + head.flags)


def _emit(text: str, out_path, args) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        _write_meta(out_path, args)
    else:
        sys.stdout.write(text)


def _environment() -> dict:
    """Library versions, the BLAS each library links, the BLAS thread
    setting and the CPU count the results were computed under."""
    blas = {lib: lib.show_config(mode="dicts")["Build Dependencies"]["blas"] for lib in (np, scipy)}
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {lib.__name__: f"{b['name']} {b['version']}" for lib, b in blas.items()},
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def _write_meta(out_path, args) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("command",)}
    stanza = {
        "tool": "cvepdecode",
        "version": __version__,
        "command": args.command,
        "config": {k: (None if v is None else v if not isinstance(v, float) or math.isfinite(v) else str(v)) for k, v in config.items()},
        "environment": _environment(),
    }
    with open(str(out_path) + ".meta.json", "w") as fh:
        json.dump(stanza, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_codes(args) -> int:
    codes = default_code_set(args.n)
    text = "".join(c.to_line() + "\n" for c in codes)
    _emit(text, args.out, args)
    return EXIT_OK


def _snr_db_to_ratio(db: float) -> float:
    if math.isinf(db):
        return math.inf if db > 0 else 0.0
    return 10.0 ** (db / 10.0)


def _cmd_simulate(args) -> int:
    codes = load_codes(args.codes_file) if args.codes_file else default_code_set(args.n_codes)
    model = ForwardModel(snr=_snr_db_to_ratio(args.snr), noise=args.noise)
    session = synthesize_session(
        args.runs, model, seed=args.seed, codes=codes, dur_s=args.duration
    )
    write_archive(session, args.out)
    _write_meta(args.out, args)
    return EXIT_OK


def _cmd_decode(args) -> int:
    session = read_archive(args.infile)
    if args.duration is None:
        # the archive's one trial length, as sweep decides; .meta.json records it
        args.duration = session.trials[0].n_samples / TARGET_FS
    outcomes = decode_session(session, args.method, args.duration)
    lines = ["trial,true_label,predicted,correct,confidence"]
    for i, (trial, outcome) in enumerate(zip(session.trials, outcomes)):
        true = trial.code_index_true
        correct = "" if true is None else int(outcome.label == true)
        true_s = "" if true is None else str(true)
        lines.append(f"{i},{true_s},{outcome.label},{correct},{outcome.confidence:.6f}")
    _emit("\n".join(lines) + "\n", args.out, args)
    return EXIT_OK


def _cmd_curve(args) -> int:
    session = read_archive(args.infile)
    curve = decoding_curve(session, args.method)
    seed = session.seed if session.seed is not None else ""
    text = CURVE_CSV_HEADER + "\n" + "\n".join(curve_csv_rows(curve, seed)) + "\n"
    _emit(text, args.out, args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    session = read_archive(args.infile)
    tags = [t for t in args.methods.split(",") if t.strip()]
    duration = session.trials[0].n_samples / TARGET_FS
    grid = bandpass_sweep(
        lambda hp, lp: filtered_session(session, hp, lp),
        tags,
        args.axis,
        duration_s=duration,
    )
    text = SWEEP_CSV_HEADER + "\n" + "\n".join(sweep_csv_rows(grid)) + "\n"
    _emit(text, args.out, args)
    return EXIT_OK


def _read_curve_csv(path) -> dict:
    """(duration_s, seed) -> accuracy. DataError for an unreadable file, a
    row of more or fewer fields than the header, an accuracy that is not a
    number in [0, 1], or a repeated point, as when two methods' curves are
    concatenated."""
    points = {}
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                # DictReader files a short row's missing fields as None, a
                # long row's extra fields under the key None
                if None in row or None in row.values():
                    raise DataError(f"curve CSV {path} has a row unlike its header")
                key = (row["duration_s"], row.get("seed", ""))
                if key in points:
                    raise DataError(
                        f"curve CSV {path} repeats duration_s {key[0]}, seed {key[1]!r}"
                    )
                accuracy = float(row["accuracy"])
                if not 0.0 <= accuracy <= 1.0:      # false for NaN too
                    raise DataError(
                        f"curve CSV {path} has accuracy {row['accuracy']} outside [0, 1]"
                    )
                points[key] = accuracy
    except (OSError, KeyError, ValueError) as exc:
        raise DataError(f"unreadable curve CSV {path}: {exc}") from exc
    if not points:
        raise DataError(f"no rows in curve CSV {path}")
    return points


def _cmd_stats(args) -> int:
    pa = _read_curve_csv(args.a)
    pb = _read_curve_csv(args.b)
    keys = sorted(set(pa) & set(pb))
    if not keys:
        raise DataError("curves share no (duration, seed) points")
    a = [pa[k] for k in keys]
    b = [pb[k] for k in keys]
    statistic, p = wilcoxon_one_sided(a, b)
    report = {
        "test": "one-sided paired Wilcoxon signed-rank (H1: a > b)",
        "n_pairs": len(keys),
        "statistic": statistic,
        "p_value": p,
        "alpha": ALPHA,
        "significant": bool(p < ALPHA),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out, args)
    return EXIT_OK


_COMMANDS = {
    "codes": _cmd_codes,
    "simulate": _cmd_simulate,
    "decode": _cmd_decode,
    "curve": _cmd_curve,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = _parse_args(parser, argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateSample as exc:
        print(f"degenerate sample: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
