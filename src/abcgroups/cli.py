"""Command-line entry point.

Subcommands: enumerate (ball and sphere sizes), ratio (class-ratio
CSV plus a gnuplot script), conjtest (key partition versus brute-force
oracle, JSON report), folner (translated-box report), spectral (periodic
part and projection-norm CSV), rewrite (word normal forms).

Exit codes: 0 success, 1 validation failure, 2 resource-cap failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .conjugacy import (
    DEFAULT_ORBIT_BOUND,
    brute_force_partition,
    conjugacy_key,
)
from .enumeration import DEFAULT_ELEMENT_CAP, ResourceCapError, enumerate_ball
from .folner import (
    DEFAULT_BOX_CAP,
    N1_SEARCH_CAP,
    translate_experiment,
)
from .groups import BaumslagSolitarContext, load_matrix_config, parse_group_descriptor
from .ratios import gnuplot_script, ratio_table, write_csv
from .spectral import epsilon_norm_table, relative_growth_table
from .words import (
    cyclic_reduce,
    evaluate,
    format_word,
    parse_word,
    t_exponent,
    to_staircase,
)

__all__ = ["RunConfig", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which is reserved for
    # resource-cap failures here
    def error(self, message):
        raise ValueError(message)


def positive_int(text: str) -> int:
    """argparse type for caps: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    command: str
    group: str | None = None
    radius: int | None = None
    f: str = "sqrt"
    out: str | None = None
    oracle_radius: int | None = None
    k: int = 2
    n: int | None = None
    matrix: str | None = None
    element_cap: int = DEFAULT_ELEMENT_CAP
    n1_cap: int = N1_SEARCH_CAP
    orbit_bound: int = DEFAULT_ORBIT_BOUND
    emit: str = "json"
    word: str | None = None


def build_parser() -> _Parser:
    parser = _Parser(prog="abcgroups", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="enumerate a ball and report sizes")
    enum.add_argument("--group", required=True)
    enum.add_argument("--radius", type=int, required=True)
    enum.add_argument("--element-cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)

    ratio = sub.add_parser("ratio", help="conjugacy ratio table as CSV")
    ratio.add_argument("--group", required=True)
    ratio.add_argument("--radius", type=int, required=True)
    ratio.add_argument("--f", default="sqrt", help="sqrt, log2 or const:<c>")
    ratio.add_argument("--out", help="CSV path; a .gp script is written next to it")
    ratio.add_argument("--element-cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)

    conj = sub.add_parser("conjtest", help="compare keys against the oracle")
    conj.add_argument("--group", required=True)
    conj.add_argument("--radius", type=int, required=True)
    conj.add_argument("--oracle-radius", type=int)
    conj.add_argument("--out")
    conj.add_argument("--element-cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)
    conj.add_argument("--orbit-bound", type=int, default=DEFAULT_ORBIT_BOUND)

    fol = sub.add_parser("folner", help="translated-box experiment report")
    fol.add_argument("--k", type=int, default=2)
    fol.add_argument("--n", type=int, required=True)
    fol.add_argument("--emit", choices=("json", "csv"), default="json")
    fol.add_argument("--out")
    fol.add_argument("--element-cap", type=positive_int, default=DEFAULT_BOX_CAP)
    fol.add_argument("--n1-cap", type=positive_int, default=N1_SEARCH_CAP)

    spec = sub.add_parser("spectral", help="periodic part and projection norms")
    spec.add_argument("--matrix", required=True, help="matrix family JSON path")
    spec.add_argument("--radius", type=int, required=True)
    spec.add_argument("--out")
    spec.add_argument("--element-cap", type=positive_int, default=DEFAULT_ELEMENT_CAP)

    rew = sub.add_parser("rewrite", help="staircase and ascending word forms")
    rew.add_argument("--group", required=True)
    rew.add_argument("word", help="whitespace-separated letters, e.g. 't g0 T'")

    return parser


def parse_config(argv) -> RunConfig:
    namespace = build_parser().parse_args(argv)
    values = vars(namespace)
    command = values.pop("command")
    return RunConfig(command=command, **values)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_enumerate(config: RunConfig) -> int:
    ctx = parse_group_descriptor(config.group)
    index = enumerate_ball(ctx, config.radius, config.element_cap)
    lines = ["r,ball,sphere"]
    for r in range(config.radius + 1):
        lines.append(f"{r},{index.ball_size(r)},{len(index.sphere(r))}")
    _write_text(config.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_ratio(config: RunConfig) -> int:
    ctx = parse_group_descriptor(config.group)
    index = enumerate_ball(ctx, config.radius, config.element_cap)
    table = ratio_table(ctx, index, config.f, config.radius)
    if config.out is None:
        write_csv(table, sys.stdout)
    else:
        write_csv(table, config.out)
        with open(config.out + ".gp", "w", encoding="utf-8") as fh:
            fh.write(gnuplot_script(config.out))
    return EXIT_OK


def _cmd_conjtest(config: RunConfig) -> int:
    ctx = parse_group_descriptor(config.group)
    oracle_radius = config.oracle_radius
    if oracle_radius is None:
        oracle_radius = config.radius + 8
    if oracle_radius < config.radius:
        raise ValueError(
            f"oracle radius {oracle_radius} is below the ball radius {config.radius}"
        )
    if config.orbit_bound < 0:
        raise ValueError(
            f"--orbit-bound must be nonnegative, got {config.orbit_bound}"
        )
    index = enumerate_ball(ctx, oracle_radius, config.element_cap)
    key_of = {
        g: conjugacy_key(ctx, g, config.orbit_bound)
        for g in index.elements(config.radius)
    }
    by_key: dict = {}
    for g, key in key_of.items():
        by_key.setdefault(key, []).append(g)
    blocks = brute_force_partition(ctx, index, config.radius, oracle_radius)
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
    for key, members in sorted(by_key.items()):
        ids = {block_of[g] for g in members}
        if len(ids) > 1:
            mismatches.append(
                {
                    "kind": "unmerged",
                    "elements": [ctx.format_element(g) for g in members],
                }
            )
    report = {
        "group": config.group,
        "radius": config.radius,
        "oracle_radius": oracle_radius,
        "ball": index.ball_size(config.radius),
        "classes_by_key": len(by_key),
        "classes_by_oracle": len(blocks),
        "mismatches": mismatches[:20],
        "mismatch_count": len(mismatches),
        "agreement": not mismatches,
    }
    _write_text(config.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_folner(config: RunConfig) -> int:
    ctx = BaumslagSolitarContext(config.k)
    if config.n is None or config.n < 1:
        raise ValueError(f"--n must be at least 1, got {config.n}")
    if config.emit == "csv":
        lines = ["n,box_size,classes,ratio,right_defect_t,left_defect_t"]
        for n in range(1, config.n + 1):
            report = translate_experiment(ctx, n, config.element_cap, config.n1_cap)
            lines.append(
                f"{n},{report.box_size},{report.classes},{report.ratio},"
                f"{report.right_defects['t']},{report.left_defect_t}"
            )
        _write_text(config.out, "\n".join(lines) + "\n")
        return EXIT_OK
    report = translate_experiment(ctx, config.n, config.element_cap, config.n1_cap)
    payload = json.dumps(report.as_dict(ctx), indent=2, sort_keys=True)
    _write_text(config.out, payload + "\n")
    return EXIT_OK


def _cmd_spectral(config: RunConfig) -> int:
    ctx = load_matrix_config(config.matrix)
    index = enumerate_ball(ctx, config.radius, config.element_cap)
    # the projection refuses a non-semisimple M, so build it first
    norms = epsilon_norm_table(ctx, index)
    growth = relative_growth_table(ctx, index)
    lines = ["r,ball,p_count,eps_max_num,eps_max_den"]
    for (r, ball, p_count), (_, eps) in zip(growth, norms):
        lines.append(f"{r},{ball},{p_count},{eps.numerator},{eps.denominator}")
    _write_text(config.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_rewrite(config: RunConfig) -> int:
    ctx = parse_group_descriptor(config.group)
    word = parse_word(config.word)
    value = evaluate(ctx, word)
    lines = [
        f"word: {format_word(word)}",
        f"value: {ctx.format_element(value)}",
        f"t_exponent: {t_exponent(word)}",
    ]
    exponent = t_exponent(word)
    if exponent >= 0:
        staircase = to_staircase(word)
        lines.append(f"staircase: {format_word(staircase)}")
    if exponent > 0:
        ascending = cyclic_reduce(word)
        lines.append(f"ascending: {format_word(ascending)}")
        lines.append(
            f"ascending_value: {ctx.format_element(evaluate(ctx, ascending))}"
        )
    _write_text(config.out, "\n".join(lines) + "\n")
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
    try:
        config = parse_config(argv)
        return _HANDLERS[config.command](config)
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
