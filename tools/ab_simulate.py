"""Compare the simulator of two checkouts in one process, plan by plan.

    python tools/ab_simulate.py A B [--seeds 1,7] [--reps 9] [--structures 40]

``A`` and ``B`` are the roots of two checkouts (the same one twice
measures the noise).  Each tree's ``src/soplan`` is copied into a
temporary directory and imported as ``soplan_a`` and ``soplan_b``.  For
each seed, the deep-packets instances of one round of
``perfbench/workloads.py`` (the first ``--structures`` of them) are
planned once with A's ``plan`` command; then, after rep 0, which warms
both sides up and is not timed, every rep times
``execute_plan(source, plan).to_jsonl()`` on each plan under A and
under B, the side run first alternating from plan to plan.  A rep's
ratio is A's total time over B's, so above 1 means B is faster.

Prints one line per seed: the median, minimum and maximum of the
per-rep ratios.  Exits 1 if any transcript of B differs from A's.
Writes nothing outside the temporary directory, which it removes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def load(tree: Path, name: str, into: Path):
    """``tree``'s ``src/soplan`` imported as package ``name``."""
    package = tree / "src" / "soplan"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no src/soplan in {tree}")
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{name}.cli"), importlib.import_module(f"{name}.multistage"),
            importlib.import_module(f"{name}.rlnc"), importlib.import_module(f"{name}.sources"))


def cases(sides: list, seed: int, structures: int, work: Path) -> list:
    """``(source, plan)`` under each side, per deep-packets instance."""
    instances = workloads.generate(workloads.DEEP_PACKETS, seed, 1)[0][:structures]
    workloads.write_inputs([instances], work / f"seed{seed}")
    cli = sides[0][0]
    result = []
    for instance in instances:
        plan_path = instance.path.with_suffix(".plan.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["plan", str(instance.path), "--seed", str(instance.plan_seed),
                             "--out", str(plan_path)])
        if code != 0:
            raise SystemExit(f"planning {instance.path.name} exited {code}")
        result.append([(sources.load_source(instance.path), multistage.load_plan(plan_path))
                       for _, multistage, _, sources in sides])
    return result


def simulate(side, source, plan) -> tuple:
    """(seconds, transcript text) of one simulation."""
    start = perf_counter()
    text = side[2].execute_plan(source, plan).to_jsonl()
    return perf_counter() - start, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--seeds", default="1,7")
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--structures", type=int, default=40)
    args = parser.parse_args(argv)
    if args.reps < 1 or args.structures < 1:
        parser.error("--reps and --structures must be at least 1")
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sys.path.insert(0, str(work))
        try:
            sides = [load(args.a, "soplan_a", work), load(args.b, "soplan_b", work)]
            for seed in (int(s) for s in args.seeds.split(",")):
                plans = cases(sides, seed, args.structures, work)
                ratios = []
                # rep 0 warms both sides up (imports, caches) and is not timed
                for rep in range(args.reps + 1):
                    totals = [0.0, 0.0]
                    for k, pair in enumerate(plans):
                        texts = [None, None]
                        for side in ((0, 1) if (rep + k) % 2 == 0 else (1, 0)):
                            seconds, texts[side] = simulate(sides[side], *pair[side])
                            totals[side] += seconds
                        if texts[0] != texts[1]:
                            same = False
                            print(f"seed {seed} rep {rep}: transcript {k} differs")
                    if rep:
                        ratios.append(totals[0] / totals[1])
                print(f"seed {seed}: A/B time ratio median {statistics.median(ratios):.3f}, "
                      f"min {min(ratios):.3f}, max {max(ratios):.3f} over {args.reps} reps "
                      f"of {len(plans)} plans")
        finally:
            sys.path.remove(str(work))
    print("transcripts identical" if same else "TRANSCRIPTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
