"""Command line front end.

Subcommands:

* ``minrate``   minimum sum-rate and an optimal rate vector
* ``compset``   one complementary-subset search with its certificate
* ``enumerate`` all complementary subsets
* ``plan``      build a multi-stage plan (JSON artifact)
* ``simulate``  run a plan with random linear network coding (JSONL)
* ``validate``  check an entropy table for polymatroid consistency

Artifacts (plan JSON, simulation transcript) go to ``--out`` or stdout;
human summaries for those two commands go to stderr so artifacts stay
machine-readable.  Exit codes: 0 success, 2 malformed input or domain
error, 3 failed certification, 4 decode failure in a simulation.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .compsetso import comp_set_so
from .core import CertificationError, DomainError, FormatError, brief, json_text
from .multistage import load_plan, plan_multistage
from .omniscience import enumerate_complementary, min_sum_rate, optimal_rate_vector
from .rlnc import execute_plan
from .sources import _label_lookup, load_source, reorder, validate_polymatroid

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CERTIFICATION = 3
EXIT_DECODE = 4

_MODEL_CHOICES = ("asymptotic", "non-asymptotic")
_ALPHA_CHOICES = ("exact", "lower-bound")


def _canonical(name: str) -> str:
    return name.replace("-", "_")


def _load_ordered(args):
    source = load_source(args.source)
    if getattr(args, "order", None):
        lookup = _label_lookup(source.ground)
        labels = []
        for part in args.order.split(","):
            part = part.strip()
            if part not in lookup:
                raise FormatError(f"--order names unknown user {brief(part)}")
            labels.append(lookup[part])
        source = reorder(source, labels)
    return source


def _emit(payload: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_minrate(args) -> int:
    source = _load_ordered(args)
    model = _canonical(args.model)
    ground = source.ground
    result = min_sum_rate(source, None, model)
    rates = optimal_rate_vector(source, model)
    print(f"users: {ground.format(ground.full_mask)}")
    print(f"model: {model}")
    print(f"min sum-rate: {result.value}")
    if result.maximizing_partition is not None:
        rendered = " | ".join(ground.format(block) for block in result.maximizing_partition)
        print(f"maximizing partition: {rendered}")
    print(f"optimal rates: {rates.format()}")
    return EXIT_OK


def _cmd_compset(args) -> int:
    source = _load_ordered(args)
    model = _canonical(args.model)
    outcome = comp_set_so(source, model, _canonical(args.alpha))
    ground = source.ground
    print(f"model: {model}")
    print(f"alpha: {outcome.alpha} ({outcome.mode})")
    if outcome.subset is not None:
        print(f"complementary subset: {ground.format(outcome.subset)}")
        print(f"found at position: {outcome.exit_position}")
    else:
        print("no complementary subset found")
        print(f"rates: {outcome.rates.format()}")
    print(outcome.certificate)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    source = _load_ordered(args)
    model = _canonical(args.model)
    ground = source.ground
    subsets = enumerate_complementary(source, model, verify=args.verify)
    lines = [f"model: {model}", f"complementary subsets: {len(subsets)}"]
    lines += [ground.format(mask) for mask in subsets]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_plan(args) -> int:
    source = _load_ordered(args)
    model = _canonical(args.model)
    plan = plan_multistage(source, model, seed=args.seed, alpha_mode=_canonical(args.alpha))
    _emit(json_text(plan.to_dict()), args.out)
    ground = plan.ground
    print(f"model: {model}", file=sys.stderr)
    print(f"stages: {len(plan.stages)}", file=sys.stderr)
    for k, stage in enumerate(plan.stages):
        print(
            f"  stage {k}: target {ground.format(stage.target)} total {stage.total}",
            file=sys.stderr,
        )
    print(f"total sum-rate: {plan.total_rates.total}", file=sys.stderr)
    print(
        f"chunk factor: {plan.chunk_factor}, field order: {plan.field_order}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    source = load_source(args.source)
    plan = load_plan(args.plan)
    transcript = execute_plan(source, plan, seed=args.seed)
    _emit(transcript.to_jsonl(), args.out)
    print(f"broadcasts: {len(transcript.broadcasts)}", file=sys.stderr)
    for user in plan.ground.labels:
        flag = "ok" if transcript.decoded[user] else "FAILED"
        print(
            f"  user {user}: rank {transcript.ranks[user]}/{transcript.required_rank} {flag}",
            file=sys.stderr,
        )
    if not transcript.ok:
        print("decode failed; retry with another --seed", file=sys.stderr)
        return EXIT_DECODE
    print("all users decoded", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args) -> int:
    source = load_source(args.source, validate=False)
    report = validate_polymatroid(source)
    print(report.summary())
    if report.ok:
        return EXIT_OK
    print("error: the entropy table is not a polymatroid", file=sys.stderr)
    return EXIT_BAD_INPUT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared: building it
    formats help for every option, which costs more than a small job."""
    parser = argparse.ArgumentParser(
        prog="soplan",
        description="Minimum sum-rates, complementary subsets and staged "
        "omniscience plans for communication-for-omniscience problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p, with_order=True):
        p.add_argument("source", help="source description (JSON)")
        if with_order:
            p.add_argument(
                "--order",
                help="comma-separated user labels; reorders the sweep order",
            )

    def add_model(p):
        p.add_argument("--model", choices=_MODEL_CHOICES, default="asymptotic")

    p = sub.add_parser("minrate", help="minimum sum-rate for omniscience")
    add_source(p)
    add_model(p)
    p.set_defaults(func=_cmd_minrate)

    p = sub.add_parser("compset", help="search for one complementary subset")
    add_source(p)
    add_model(p)
    p.add_argument("--alpha", choices=_ALPHA_CHOICES, default="exact")
    p.set_defaults(func=_cmd_compset)

    p = sub.add_parser("enumerate", help="list all complementary subsets "
                       "(3^n / 2 candidate visits: about 8 s at 16 users)")
    add_source(p)
    add_model(p)
    p.add_argument(
        "--verify",
        action="store_true",
        help="recompute every verdict from each subset's own truncation, "
        "read off a table of partition minima that shares no code with the "
        "listing",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("plan", help="build a multi-stage omniscience plan")
    add_source(p)
    add_model(p)
    p.add_argument("--alpha", choices=_ALPHA_CHOICES, default="lower-bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the plan JSON here instead of stdout")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", help="simulate a plan with network coding")
    p.add_argument("source", help="source description (JSON)")
    p.add_argument("plan", help="plan artifact (JSON)")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the seed recorded in the plan",
    )
    p.add_argument("--out", help="write the transcript JSONL here instead of stdout")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="check an entropy table")
    add_source(p, with_order=False)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
