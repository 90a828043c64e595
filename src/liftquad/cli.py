"""Command-line front end.

Subcommands: ``flat`` dumps the open-loop flatness feedforward along a
reference, ``sim`` runs one closed-loop experiment, ``compare`` runs
the condition matrix, a cell per entry of ``CONDITIONS``, and ``check``
audits the feedforward demands against the actuator limits.
Exit codes: 0 success, 2 bad config or arguments, 3 divergence.
"""

import sys
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
    parser.add_argument("--duration", type=float, metavar="S",
                        help="override sim.duration (seconds)")
    if with_condition:
        parser.add_argument("--condition", choices=sorted(CONDITIONS),
                            help="controller condition preset")


def build_parser():
    import argparse     # and gettext: only main() pays for them
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
        "compare", help="run the five cells of the condition matrix"),
        False)
    _add_common(sub.add_parser(
        "check", help="compare feedforward demands with actuator limits"),
        True)
    return parser


def _resolve_config(args):
    cfg = load_config(args.config) if args.config else build_config({})
    if args.duration is not None:
        cfg = cfg.replace(duration=args.duration)
    if getattr(args, "condition", None):
        cfg = cfg.with_condition(args.condition)
    return cfg


def _out_dir(args):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {out}: {exc}") from None
    return out


def _write(path, write):
    """``write(path)``; an unwritable output is a usage error, like --out."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _claim(*paths):
    """Refuse, before any run starts, an output that cannot be written.

    Opening for appending creates a missing file empty and leaves an
    existing one as it is; the run's output replaces it later."""
    for path in paths:
        _write(path, lambda p: p.open("a", encoding="utf-8").close())


def _write_run(run, cfg, path):
    _claim(path)
    try:
        result = run(cfg)
    except DivergenceError as exc:
        _write(path, exc.result.write_csv)
        print(f"wrote partial trace to {path}", file=sys.stderr)
        raise
    _write(path, result.write_csv)
    print(f"wrote {result.n_rows} rows to {path}")
    return result


def _cmd_flat(args):
    _write_run(feedforward_trace, _resolve_config(args),
               _out_dir(args) / "flat.csv")
    return EXIT_OK


def _cmd_sim(args):
    cfg = _resolve_config(args)
    name = args.condition or "sim"
    result = _write_run(run_experiment, cfg, _out_dir(args) / f"{name}.csv")
    print(f"E_p = {result.rmse:.6f} m over {cfg.duration:g} s")
    return EXIT_OK


def _cmd_compare(args):
    cfg = _resolve_config(args)
    out = _out_dir(args)
    summary = out / "summary.txt"
    _claim(*(out / f"{name}.csv" for name in CONDITIONS), summary)
    cells = condition_matrix(cfg)
    for cell in cells:
        _write(out / f"{cell.name}.csv", cell.result.write_csv)
    table = format_matrix(cells)
    _write(summary, lambda path: path.write_text(
        f"duration {cfg.duration:g} s\n{table}\n", encoding="utf-8"))
    print(table)
    return EXIT_OK


def _cmd_check(args):
    cfg = _resolve_config(args)
    _out_dir(args)
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
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    raise SystemExit(main())
