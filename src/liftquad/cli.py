"""Command-line front end.

Subcommands: ``flat`` dumps the open-loop flatness feedforward along a
reference, ``sim`` runs one closed-loop experiment, ``compare`` runs
the four-condition matrix plus the rate-feedforward ablation, and
``check`` audits the feedforward demands against the actuator limits.
Exit codes: 0 success, 2 bad config or arguments, 3 divergence.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import CONDITIONS, ConfigError, build_config, load_config
from .harness import (DivergenceError, condition_matrix, feasibility_check,
                      feedforward_trace, format_matrix, run_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _add_common(parser, with_condition):
    parser.add_argument("--config", metavar="PATH",
                        help="config file (defaults apply when omitted)")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override sim.seed")
    parser.add_argument("--duration", type=float, metavar="S",
                        help="override sim.duration (seconds)")
    if with_condition:
        parser.add_argument("--condition", choices=sorted(CONDITIONS),
                            help="controller condition preset")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liftquad",
        description="Flatness feedforward and closed-loop tracking "
                    "experiments for a lifting-wing quadcopter.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser(
        "flat", help="write the open-loop feedforward trace"), True)
    _add_common(sub.add_parser(
        "sim", help="run one closed-loop experiment"), True)
    _add_common(sub.add_parser(
        "compare", help="run the condition matrix and the rate-feedforward "
                        "ablation"), False)
    _add_common(sub.add_parser(
        "check", help="compare feedforward demands with actuator limits"),
        True)
    return parser


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else build_config({})
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.duration is not None:
        cfg = replace(cfg, duration=args.duration)
    if getattr(args, "condition", None):
        cfg = cfg.with_condition(args.condition)
    return cfg


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_flat(args):
    cfg = _resolve_config(args)
    trace = feedforward_trace(cfg)
    path = _out_dir(args) / "flat.csv"
    trace.write_csv(path)
    print(f"wrote {len(trace.t)} rows to {path}")
    return EXIT_OK


def _cmd_sim(args):
    cfg = _resolve_config(args)
    name = args.condition or "sim"
    path = _out_dir(args) / f"{name}.csv"
    try:
        result = run_experiment(cfg)
    except DivergenceError as exc:
        exc.result.write_csv(path)
        print(f"wrote partial trace to {path}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    result.write_csv(path)
    print(f"wrote {len(result.t)} rows to {path}")
    print(f"E_p = {result.rmse:.6f} m over {cfg.duration:g} s "
          f"(seed {cfg.seed})")
    return EXIT_OK


def _cmd_compare(args):
    cfg = _resolve_config(args)
    out = _out_dir(args)
    matrix = condition_matrix(cfg)
    for cell in list(matrix.cells) + [matrix.ablation]:
        cell.result.write_csv(out / f"{cell.name}.csv")
    table = format_matrix(matrix)
    (out / "summary.txt").write_text(
        f"seed {cfg.seed}, duration {cfg.duration:g} s\n{table}\n",
        encoding="utf-8")
    print(table)
    return EXIT_OK


def _cmd_check(args):
    cfg = _resolve_config(args)
    report = feasibility_check(cfg)
    print(report.summary())
    return EXIT_OK


_COMMANDS = {
    "flat": _cmd_flat,
    "sim": _cmd_sim,
    "compare": _cmd_compare,
    "check": _cmd_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
