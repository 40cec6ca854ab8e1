"""soplan benchmark: drives the ``soplan`` CLI in-process on seeded inputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide-users --seed 1 --seconds 30 --trace 0

One process, one client, no threads: a closed loop runs one CLI command
(``soplan.cli.main``) at a time.  Every command loads its source file
fresh, as the CLI does.  ``--seconds`` fixes how many whole rounds of
jobs the run covers (see workloads.rounds_for).  A fixed reference task
runs between jobs, and every time is rescaled to the reference task's
nominal speed, which removes the shared machine's swings in speed (see
README.md, "Machine speed").  With ``--trace 1`` the jobs run twice,
untraced and then traced, and the run reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the output digest and every failed job.  See README.md for the
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_REPS = 7
# A job's tail time is read at the highest percentile that leaves at
# least this many jobs beyond it.
TAIL_BEYOND = 10
# Seconds the reference task (workloads.reference_task) takes on the
# nominal machine when nothing else runs on it.  Measured times are
# rescaled to that speed; see README.md, "Machine speed".
REFERENCE_SECONDS = 0.0169


def timed(task) -> float:
    start = perf_counter()
    task()
    return perf_counter() - start


class Run:
    """The jobs a pass executed, their timings and outcomes."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.times: list = []
        self.scales: list = []
        self.ok = 0
        self.failures: list = []
        self.wrong: list = []
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.times)

    def record(self, job, code, seconds: float, stdout: str, error: str | None) -> None:
        self.times.append(seconds)
        prefix = str(self.workdir) + os.sep
        argv = [arg.replace(prefix, "") for arg in job.argv]
        self.digest.update(json.dumps([argv, str(code)]).encode())
        self.digest.update(stdout.encode())
        if job.out is not None and job.out.exists():
            self.digest.update(job.out.read_bytes())
        if code == 0 and error is None:
            self.ok += 1
            return
        entry = {
            "workload": self.workload,
            "seed": self.seed,
            "instance": job.instance.index,
            "command": job.command,
            "exit": code,
        }
        if error is not None:
            entry["reason"] = error
            if code == 0:
                self.wrong.append(entry)
        self.failures.append(entry)


def run_job(main, job, run: Run, tracer: Tracer | None = None) -> int:
    """Run one CLI command with its output captured; time only the
    command, then check its output."""
    if job.out is not None:
        job.out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    frame = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        if tracer is not None:
            tracer.start_job(run.attempted)
            frame = tracer.begin(tracer.name_id(f"cli.{job.command}"))
        try:
            code = main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught exception is a failed job, not a crashed run
            code = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        finally:
            if frame is not None:
                tracer.finish(frame)
        seconds = perf_counter() - start
    error = workloads.check_job(job, stdout.getvalue()) if code == 0 else None
    run.record(job, code, seconds, stdout.getvalue(), error)
    return code


def run_jobs(main, workload, seed, workdir, jobs, reference, tracer=None) -> Run:
    """Run ``jobs`` in order; a simulate job is skipped (not attempted)
    when the plan job before it failed.  The reference task runs between
    jobs, and each job's scale is the nominal reference time over the
    mean of the samples just before and just after it."""
    run = Run(workload, seed, workdir)
    last_code = 0
    before = timed(reference)
    for job in jobs:
        if job.plan is not None and last_code != 0:
            continue
        last_code = run_job(main, job, run, tracer)
        after = timed(reference)
        run.scales.append(2 * REFERENCE_SECONDS / (before + after))
        before = after
    return run


def setup_samples(inputs: Path, count: int, reference) -> list:
    """Seconds to import soplan plus one load_source of every generated
    input, once in each of ``count`` fresh interpreters, rescaled like
    job times by reference samples taken around each."""
    probe = HERE / "setup_probe.py"
    samples = []
    before = timed(reference)
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), str(inputs)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        after = timed(reference)
        seconds = float(done.stdout.strip().splitlines()[-1])
        samples.append(seconds * 2 * REFERENCE_SECONDS / (before + after))
        before = after
    return samples


def _scaled_total(run: Run) -> float:
    return sum(t * s for t, s in zip(run.times, run.scales))


def tail(times: list) -> tuple:
    """(seconds, percentile) at the highest percentile with at least
    TAIL_BEYOND jobs beyond it; the slowest job when there are fewer."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(times: list, run: Run, setup_s: float) -> dict:
    tail_s, _ = tail(times)
    return {
        "jobs_per_s": (run.ok / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "ok_share": (run.ok / run.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer: Tracer, overhead: float) -> dict:
    stat = tracer.stat
    count = tracer.counts
    metrics = {}

    def ratio(num, den):
        return num / den if den else 0.0

    cli_self = 0.0
    for command in ("minrate", "compset", "enumerate", "plan", "simulate", "validate"):
        _, total, own = stat(f"cli.{command}")
        metrics[f"cli.{command}.s"] = (total, "s")
        cli_self += own
    metrics["cli.self_s"] = (cli_self, "s")

    metrics["sources.load_source.s"] = (stat("sources.load_source")[1], "s")
    metrics["sources.validate_polymatroid.s"] = (stat("sources.validate_polymatroid")[1], "s")
    calls, _, own = stat("sources.entropy")
    distinct = count["sources.entropy.distinct"]
    metrics["sources.entropy.calls"] = (calls, "count")
    metrics["sources.entropy.distinct"] = (distinct, "count")
    metrics["sources.entropy.hit_ratio"] = (ratio(calls - distinct, calls), "ratio")
    metrics["sources.entropy.self_s"] = (own, "s")

    calls, total, _ = stat("gf.add")
    metrics["gf.add.calls"] = (calls, "count")
    metrics["gf.add.grew_ratio"] = (ratio(count["gf.add.grew"], calls), "ratio")
    metrics["gf.add.s"] = (total, "s")
    for name in ("contains", "random_combination"):
        calls, total, _ = stat(f"gf.{name}")
        metrics[f"gf.{name}.calls"] = (calls, "count")
        metrics[f"gf.{name}.s"] = (total, "s")
    metrics["gf.clone.calls"] = (stat("gf.clone")[0], "count")

    calls, total, _ = stat("submodular.minimize_over_prefix")
    metrics["submodular.minimize_over_prefix.calls"] = (calls, "count")
    metrics["submodular.minimize_over_prefix.candidates"] = (
        count["submodular.minimize_over_prefix.candidates"], "count")
    metrics["submodular.minimize_over_prefix.s"] = (total, "s")
    metrics["submodular.run_rate_update.s"] = (stat("submodular.run_rate_update")[1], "s")
    calls, total, _ = stat("submodular.dilworth_truncation")
    metrics["submodular.dilworth_truncation.calls"] = (calls, "count")
    metrics["submodular.dilworth_truncation.s"] = (total, "s")

    calls, _, own = stat("omniscience.min_sum_rate")
    metrics["omniscience.min_sum_rate.calls"] = (calls, "count")
    metrics["omniscience.min_sum_rate.cold"] = (count["omniscience.min_sum_rate.cold"], "count")
    metrics["omniscience.min_sum_rate.self_s"] = (own, "s")
    metrics["omniscience.min_sum_rate.fraction_calls"] = (
        count["omniscience.min_sum_rate.fraction_calls"], "count")
    calls, total, _ = stat("omniscience.check_sw_achievable")
    metrics["omniscience.check_sw_achievable.calls"] = (calls, "count")
    metrics["omniscience.check_sw_achievable.s"] = (total, "s")
    metrics["omniscience.enumerate_complementary.self_s"] = (
        stat("omniscience.enumerate_complementary")[2], "s")

    certify = stat("compsetso.certify_outcome")[1]
    metrics["compsetso.comp_set_so.s"] = (stat("compsetso.comp_set_so")[1], "s")
    metrics["compsetso.comp_set_so.candidates"] = (count["compsetso.comp_set_so.candidates"], "count")
    metrics["compsetso.certify_outcome.s"] = (certify, "s")
    metrics["compsetso.certify_share"] = (
        ratio(certify, stat("cli.compset")[1] + stat("cli.plan")[1]), "ratio")

    metrics["multistage.plan_multistage.self_s"] = (stat("multistage.plan_multistage")[2], "s")
    calls, total, _ = stat("multistage.merge_super_user")
    metrics["multistage.merge_super_user.calls"] = (calls, "count")
    metrics["multistage.merge_super_user.s"] = (total, "s")
    metrics["multistage.passes"] = (stat("multistage.initial_system")[0], "count")
    metrics["multistage.stages"] = (count["multistage.stages"], "count")
    metrics["multistage.chunk_factor.max"] = (count["multistage.chunk_factor.max"], "count")

    metrics["rlnc.execute_plan.self_s"] = (stat("rlnc.execute_plan")[2], "s")
    metrics["rlnc.broadcasts"] = (count["rlnc.broadcasts"], "count")
    metrics["rlnc.stage_attempts"] = (count["rlnc.stage_attempts"], "count")
    metrics["rlnc.redraw_ratio"] = (ratio(count["rlnc.stages"], count["rlnc.stage_attempts"]), "ratio")
    metrics["rlnc.decoded_share"] = (ratio(count["rlnc.decoded"], count["rlnc.users"]), "ratio")

    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object (plus the digest and
    failure list, printed before it)."""
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    try:
        rounds = workloads.generate(workload, seed, workloads.rounds_for(workload, seconds))
        inputs = workdir / "inputs"
        artifacts = workdir / "artifacts"
        artifacts.mkdir(parents=True)
        workloads.write_inputs(rounds, inputs)
        jobs = [
            job
            for current in rounds
            for instance in current
            for job in workloads.jobs_for(workload, instance, artifacts)
        ]
        reference = workloads.reference_task()
        setup = setup_samples(inputs, 0 if trace else SETUP_REPS, reference)

        import soplan.cli

        main = soplan.cli.main
        run = run_jobs(main, workload, seed, workdir, jobs, reference)
        same = True
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_jobs(main, workload, seed, workdir, jobs, reference, tracer)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{workload}-{seed}.tsv.gz")
            same = run.digest.hexdigest() == traced.digest.hexdigest()
            metrics = per_layer(tracer, _scaled_total(traced) / _scaled_total(run))
        else:
            scaled = [t * s for t, s in zip(run.times, run.scales)]
            metrics = end_to_end(scaled, run, statistics.median(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _, tail_pct = tail(run.times)
    return {
        "reference_ms": 1000 * REFERENCE_SECONDS / statistics.median(run.scales),
        "digest": run.digest.hexdigest(),
        "traced_digest_matches": same,
        "jobs": run.attempted,
        "tail_percentile": tail_pct,
        "failures": run.failures,
        "result": {
            "correct": same and not run.wrong,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soplan benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "soplan" / "cli.py").is_file():
        print(f"error: no soplan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"digest {out['digest']} over {out['jobs']} jobs; "
          f"tail at p{out['tail_percentile']:.1f} of {out['jobs']} jobs; reference task "
          f"{out['reference_ms']:.2f} ms (nominal {1000 * REFERENCE_SECONDS:.2f} ms)")
    result = out["result"]
    print(f"failed_share {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} jobs); failures " + json.dumps(out["failures"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
