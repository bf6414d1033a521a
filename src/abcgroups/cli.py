"""Command-line entry point.

Subcommands: enumerate (ball and sphere sizes), ratio (class-ratio
CSV plus a gnuplot script), conjtest (key partition versus brute-force
oracle, JSON report), folner (translated-box report), spectral (periodic
part and projection-norm CSV), rewrite (word normal forms).

Exit codes: 0 success, 1 validation failure, 2 resource-cap failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .conjugacy import brute_force_partition, closed_form_lengths, conjugacy_key
from .enumeration import DEFAULT_ELEMENT_CAP, ResourceCapError, enumerate_ball
from .folner import DEFAULT_BOX_CAP, translate_experiment
from .groups import (
    BaumslagSolitarContext,
    load_matrix_config,
    parse_group_descriptor,
    parse_int,
)
from .ratios import format_csv, gnuplot_script, ratio_table
from .spectral import epsilon_norm_table, relative_growth_table
from .words import (
    cyclic_reduce,
    evaluate,
    format_word,
    parse_word,
    t_exponent,
    to_staircase,
)

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which is reserved for
    # resource-cap failures here
    def error(self, message):
        raise ValueError(message)


def integer(text: str) -> int:
    """argparse type: an integer written as [+-]?[0-9]+ and nothing else."""
    return parse_int(text, "integer")


def positive_int(text: str) -> int:
    """argparse type for caps: an integer of at least 1."""
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="abcgroups", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="enumerate a ball and report sizes")
    enum.add_argument("--group", required=True)
    enum.add_argument("--radius", type=integer, required=True)
    enum.add_argument("--element-cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)

    ratio = sub.add_parser("ratio", help="conjugacy ratio table as CSV")
    ratio.add_argument("--group", required=True)
    ratio.add_argument("--radius", type=integer, required=True)
    ratio.add_argument("--f", default="sqrt", help="sqrt, log2 or const:<c>")
    ratio.add_argument("--out", help="CSV path; a .gp script is written next to it")
    ratio.add_argument("--element-cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)

    conj = sub.add_parser("conjtest", help="compare keys against the oracle")
    conj.add_argument("--group", required=True)
    conj.add_argument("--radius", type=integer, required=True)
    conj.add_argument("--oracle-radius", type=integer)
    conj.add_argument("--out")
    conj.add_argument("--element-cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)

    fol = sub.add_parser("folner", help="translated-box experiment report")
    fol.add_argument("--k", type=integer, default=2)
    fol.add_argument("--n", type=integer, required=True)
    fol.add_argument("--emit", choices=("json", "csv"), default="json")
    fol.add_argument("--out")
    fol.add_argument("--element-cap", type=positive_int, default=DEFAULT_BOX_CAP)

    spec = sub.add_parser("spectral", help="periodic part and projection norms")
    spec.add_argument("--matrix", required=True, help="matrix family JSON path")
    spec.add_argument("--radius", type=integer, required=True)
    spec.add_argument("--out")
    spec.add_argument("--element-cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)

    rew = sub.add_parser("rewrite", help="staircase and ascending word forms")
    rew.add_argument("--group", required=True)
    rew.add_argument("word", help="whitespace-separated letters, e.g. 't g0 T'")

    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _ball_reach(radius: int) -> int:
    """The reach of enumerate and ratio: a K-part of S^R is num / k^e with
    e <= R (bs) or has its lamps in [-R, R] (lamplighter), and the bench's
    kernel timings apply phi^+-R to it."""
    return 2 * max(radius, 0)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    ctx = parse_group_descriptor(args.group, reach=_ball_reach(args.radius))
    index = enumerate_ball(ctx, args.radius, args.element_cap)
    lines = ["r,ball,sphere"]
    for r in range(args.radius + 1):
        sphere = sum(map(len, index.strata(r).values()))
        lines.append(f"{r},{index.ball_size(r)},{sphere}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_ratio(args: argparse.Namespace) -> int:
    ctx = parse_group_descriptor(args.group, reach=_ball_reach(args.radius))
    index = enumerate_ball(ctx, args.radius, args.element_cap)
    _write_text(args.out, format_csv(ratio_table(ctx, index, args.f)))
    if args.out is not None:
        _write_text(args.out + ".gp", gnuplot_script(args.out))
    return EXIT_OK


def _cmd_conjtest(args: argparse.Namespace) -> int:
    oracle_radius = args.oracle_radius
    if oracle_radius is None:
        oracle_radius = args.radius + 8
    # the oracle applies phi^j, |j| <= RC, to the K-parts of S^R, whose
    # bs exponents e and lamp indices |i| are at most R
    reach = max(args.radius + oracle_radius, 0)
    ctx = parse_group_descriptor(args.group, reach=reach)
    if oracle_radius < args.radius:
        raise ValueError(
            f"oracle radius {oracle_radius} is below the ball radius {args.radius}"
        )
    # the oracle reads conjugator lengths off S^RC only without a closed form
    ball_radius = args.radius if closed_form_lengths(ctx) else oracle_radius
    index = enumerate_ball(ctx, ball_radius, args.element_cap)
    key_of = {g: conjugacy_key(ctx, g) for g in index.elements(args.radius)}
    by_key: dict = {}
    for g, key in key_of.items():
        by_key.setdefault(key, []).append(g)
    blocks = brute_force_partition(ctx, index, args.radius, oracle_radius)
    block_of = {g: i for i, block in enumerate(blocks) for g in block}
    mismatches = []
    for block in blocks:
        keys = {key_of[g] for g in block}
        if len(keys) > 1:
            mismatches.append(
                {
                    "kind": "split",
                    "elements": [ctx.format_element(g) for g in block],
                }
            )
    for members in by_key.values():
        ids = {block_of[g] for g in members}
        if len(ids) > 1:
            mismatches.append(
                {
                    "kind": "unmerged",
                    "elements": [ctx.format_element(g) for g in members],
                }
            )
    report = {
        "group": args.group,
        "radius": args.radius,
        "oracle_radius": oracle_radius,
        "ball": index.ball_size(args.radius),
        "classes_by_key": len(by_key),
        "classes_by_oracle": len(blocks),
        "mismatches": mismatches[:20],
        "mismatch_count": len(mismatches),
        "agreement": not mismatches,
    }
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_folner(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    # reach n covers the grid k^-n of the box F_n.  A box over the cap is
    # refused before any K-part is built, and every box under it has
    # 2^(3n) <= cap, so the reach stops at the cap's bit length rather than
    # build k^n at n = 10^7
    reach = min(args.n, args.element_cap.bit_length())
    ctx = BaumslagSolitarContext(args.k, reach=reach)
    if args.emit == "csv":
        # the largest box first, so that its cap check runs before any other
        # box is built and keyed
        reports = [
            translate_experiment(ctx, n, args.element_cap)
            for n in range(args.n, 0, -1)
        ]
        lines = ["n,box_size,classes,ratio,right_defect_t,left_defect_t"]
        for report in reversed(reports):
            lines.append(
                f"{report.n},{report.box_size},{report.classes},{report.ratio},"
                f"{report.right_defects['t']},{report.left_defect_t}"
            )
        _write_text(args.out, "\n".join(lines) + "\n")
        return EXIT_OK
    report = translate_experiment(ctx, args.n, args.element_cap)
    payload = json.dumps(report.as_dict(ctx), indent=2, sort_keys=True)
    _write_text(args.out, payload + "\n")
    return EXIT_OK


def _cmd_spectral(args: argparse.Namespace) -> int:
    ctx = load_matrix_config(args.matrix)
    index = enumerate_ball(ctx, args.radius, args.element_cap)
    # the projection refuses a non-semisimple M, so build it first
    norms = epsilon_norm_table(ctx, index)
    growth = relative_growth_table(ctx, index)
    lines = ["r,ball,p_count,eps_max_num,eps_max_den"]
    for (r, ball, p_count), (_, eps) in zip(growth, norms):
        lines.append(f"{r},{ball},{p_count},{eps.numerator},{eps.denominator}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_rewrite(args: argparse.Namespace) -> int:
    word = parse_word(args.word)
    # each letter moves the exponent e of the running bs K-part, or the
    # lamp cursor, by at most 1
    ctx = parse_group_descriptor(args.group, reach=len(word))
    value = evaluate(ctx, word)
    exponent = t_exponent(word)
    lines = [
        f"word: {format_word(word)}",
        f"value: {ctx.format_element(value)}",
        f"t_exponent: {exponent}",
    ]
    if exponent >= 0:
        staircase = to_staircase(word)
        lines.append(f"staircase: {format_word(staircase)}")
    if exponent > 0:
        ascending = cyclic_reduce(word)
        lines.append(f"ascending: {format_word(ascending)}")
        lines.append(
            f"ascending_value: {ctx.format_element(evaluate(ctx, ascending))}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "ratio": _cmd_ratio,
    "conjtest": _cmd_conjtest,
    "folner": _cmd_folner,
    "spectral": _cmd_spectral,
    "rewrite": _cmd_rewrite,
}


def run(argv=None) -> int:
    """Run one command and return its exit code.

    Python's cyclic garbage collector is paused while the handler runs.
    The work builds no reference cycles, so a collection frees nothing,
    and as the ball grows each full pass walks every element again.  The
    collector's earlier state is restored on every exit, 1 and 2 included.
    """
    try:
        args = build_parser().parse_args(argv)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return _HANDLERS[args.command](args)
        finally:
            if was_enabled:
                gc.enable()
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
