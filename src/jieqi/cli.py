"""Command-line interface.

Subcommands: simulate (random self-play measurement, writes games.csv /
series.csv / summary.json), count-infosets (exact number of information
sets), infoset-size (exact size for one state text), compare (reference
complexity table for several games), perft (move-path counts for the
engine).  Exit codes: 0 success, 1 usage error, 2 malformed state text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .board import Side
from .combinatorics import exact_log10
from .engine import STANDARD_RULES, Rules, observe, perft_counts
from .enumeration import STANDARD_PARAMS, CountParams, count_information_sets
from .infoset import infoset_size
from .jfen import JfenError, decode_state
from .simulator import (
    format_stat,
    run_simulation,
    usable_cpus,
    write_games_csv,
    write_series_csv,
    write_summary_json,
)

#: Published branching factor / average game length / log10 game-tree
#: complexity for well-studied games, with this game's values measured the
#: same way.
COMPARISON_ROWS: tuple[tuple[str, float, float, float], ...] = (
    ("Gomoku(15x15)", 210, 30, 70),
    ("Chess", 35, 70, 123),
    ("Chinese chess", 38, 95, 150),
    ("Dark Chinese chess", 35, 133, 205),
    ("Go", 250, 150, 360),
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="jieqi", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run random self-play games")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--games", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0, help="master seed")
    sim.add_argument("--draw-plies", type=int, default=STANDARD_RULES.draw_plies,
                     help="plies without a capture before a draw")
    sim.add_argument("--workers", type=int, default=usable_cpus(),
                     help="worker processes, at most one per usable CPU and per game")
    sim.add_argument("--out-dir", required=True,
                     help="directory for games.csv, series.csv, summary.json")
    sim.add_argument("--classic-dark-roles", action="store_true",
                     help="palace-confined face-down guard-role movement")

    cnt = sub.add_parser("count-infosets", help="exact number of information sets")
    cnt.set_defaults(run=_cmd_count_infosets)
    cnt.add_argument("--pieces-per-side", type=int, default=STANDARD_PARAMS.pieces_per_side)
    cnt.add_argument("--board-squares", type=int, default=STANDARD_PARAMS.board_squares)
    cnt.add_argument("--dark-squares-per-side", type=int,
                     default=STANDARD_PARAMS.dark_squares_per_side)
    cnt.add_argument("--format", choices=("text", "json"), default="text")

    isz = sub.add_parser("infoset-size", help="information-set size of a state")
    isz.set_defaults(run=_cmd_infoset_size)
    isz.add_argument("--state", required=True, help="JFEN state text")
    isz.add_argument("--viewer", choices=("red", "black"),
                     help="viewpoint (default: the side to move)")

    cmp_ = sub.add_parser("compare", help="complexity comparison table")
    cmp_.set_defaults(run=_cmd_compare)
    cmp_.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    cmp_.add_argument("--measured", metavar="SUMMARY_JSON",
                      help="append a measured row from a simulate run")

    pft = sub.add_parser("perft", help="count move paths from a state")
    pft.set_defaults(run=_cmd_perft)
    pft.add_argument("--state", required=True,
                     help="JFEN state text with its hidden section")
    pft.add_argument("--depth", type=int, required=True)

    return parser


def _cmd_simulate(parser: _Parser, args: argparse.Namespace) -> int:
    if args.games < 1:
        parser.error("--games must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    try:
        rules = Rules(draw_plies=args.draw_plies,
                      classic_dark_roles=args.classic_dark_roles)
    except ValueError as exc:
        parser.error(str(exc))
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create --out-dir {out}: {exc}")
    summary, series, records = run_simulation(
        args.games, args.seed, args.workers, rules
    )
    write_games_csv(out / "games.csv", records)
    write_series_csv(out / "series.csv", series)
    write_summary_json(out / "summary.json", summary, args.seed, rules)
    print(f"games={summary.games}")
    print(f"mean_branching={format_stat(summary.mean_branching)}")
    print(f"mean_length_plies={format_stat(summary.mean_length_plies)}")
    print(f"mean_log10_infoset={format_stat(summary.mean_log10_infoset)}")
    print(f"log10_mean_infoset={format_stat(summary.log10_mean_infoset)}")
    print(f"log10_gtc={format_stat(summary.log10_gtc)}")
    print(f"wrote {out / 'games.csv'}, {out / 'series.csv'}, {out / 'summary.json'}")
    return 0


def _cmd_count_infosets(parser: _Parser, args: argparse.Namespace) -> int:
    try:
        params = CountParams(args.pieces_per_side, args.board_squares,
                             args.dark_squares_per_side)
    except ValueError as exc:
        parser.error(str(exc))
    primary = count_information_sets(params)
    variant = count_information_sets(params, split_offboard_when_all_bright=True)
    result = {
        "information_sets": primary,
        "log10": exact_log10(primary),
        "always_split_offboard": variant,
        "always_split_offboard_log10": exact_log10(variant),
    }
    if args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        for key, value in result.items():
            print(f"{key}={format_stat(value) if isinstance(value, float) else value}")
    return 0


def _cmd_infoset_size(parser: _Parser, args: argparse.Namespace) -> int:
    state = decode_state(args.state)
    viewer = state.side_to_move
    if args.viewer is not None:
        viewer = Side.RED if args.viewer == "red" else Side.BLACK
    size = infoset_size(observe(state, viewer))
    print(size)
    print(f"log10={format_stat(exact_log10(size))}")
    return 0


def _load_measured(parser: _Parser, path: str) -> tuple[str, float, float, float]:
    try:
        payload = json.loads(Path(path).read_text())
        return (
            "Dark Chinese chess (measured)",
            float(payload["mean_branching"]),
            float(payload["mean_length_plies"]),
            float(payload["log10_gtc"]),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        parser.error(f"cannot read measured summary {path}: {exc}")


def _cmd_compare(parser: _Parser, args: argparse.Namespace) -> int:
    rows = list(COMPARISON_ROWS)
    if args.measured:
        rows.append(_load_measured(parser, args.measured))

    def cell(x: float) -> str:
        return str(int(x)) if float(x).is_integer() else format_stat(x)

    header = ("game", "branching_factor", "avg_game_length", "log10_gtc")
    if args.format == "json":
        print(json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2
        ))
    elif args.format == "md":
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join(" --- " for _ in header) + "|")
        for name, b, p, gtc in rows:
            print(f"| {name} | {cell(b)} | {cell(p)} | {cell(gtc)} |")
    else:
        print(",".join(header))
        for name, b, p, gtc in rows:
            print(f"{name},{cell(b)},{cell(p)},{cell(gtc)}")
    return 0


def _cmd_perft(parser: _Parser, args: argparse.Namespace) -> int:
    if not 1 <= args.depth <= 4:
        parser.error("--depth must be between 1 and 4")
    state = decode_state(args.state)
    if not state.is_arbiter_complete():
        print("perft needs the hidden section of the state", file=sys.stderr)
        return 2
    for depth, nodes in enumerate(perft_counts(state, args.depth), start=1):
        print(f"depth {depth}: {nodes}")
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(parser, args)
    except SystemExit as exc:  # argparse --help or usage error
        return int(exc.code or 0)
    except JfenError as exc:
        print(f"bad state text: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
