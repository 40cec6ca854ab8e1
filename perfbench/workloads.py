"""Workload definitions: seeded instance generators, the CLI commands each
instance runs, and the output checks that decide whether a job failed.

Everything here is self-contained: the generators do not use the test
suite's helpers, and the checks recompute entropies from the generated
data instead of asking the code under test.  Nothing in this module
imports soplan.

A workload is a sequence of *rounds*.  A round is a fixed mix of instance
shapes, and a run covers a whole number of rounds fixed by ``--seconds``
(see :func:`rounds_for`), so the job count, the job mix and the
percentile positions are the same in every run and on every commit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WIDE_USERS = "wide-users"
DEEP_PACKETS = "deep-packets"
FRACTION_TABLES = "fraction-tables"

# Why each workload exists (one line each; also in README.md).
WHY = {
    # Bell-number partition enumeration (omniscience/core) over popcount
    # entropies (sources); certification is nearly all of compset's time
    # and gf never runs.  The ladder stops at 11 users because 12 take
    # minutes before the sweep-based minimum sum-rate lands.
    WIDE_USERS: "9-11 users: Bell-number partition enumeration and certification dominate; gf never runs",
    # Partitions are trivial (at most Bell(6) = 203); the time is dense
    # GF(q) elimination through LinearSource ranks, stage synthesis and
    # execute_plan, and it grows with the plan's chunk factor.
    DEEP_PACKETS: "5-6 users, 30-50 packets: dense GF(q) elimination in planning and simulation dominates",
    # Same core/omniscience/submodular layers as wide-users but through
    # the Fraction branches, 2^n warm subset minimizations instead of one
    # cold one, and polymatroid validation at load.
    FRACTION_TABLES: "8-9-user rational entropy tables: Fraction branches, 2^n warm subset minimizations, load-time validation",
}

# Shapes of one round, as user counts.  With these mixes the median and
# tail jobs fall inside a block of jobs of one shape rather than on the
# edge between two, where a small change would swap the shape read.
WIDE_ROUND = (9, 10, 11)
FRACTION_ROUND = (8, 8, 9)

# Deep-packets structures: per-instance cost grows roughly with
# (chunk factor x packets)^2, and the chunk factor of a random 5-6-user
# source ranges from 1 to 6, so random draws differ 100-fold in cost and a
# run of a few dozen of them cannot give a steady mean.  The possession
# structures therefore come from a frozen catalogue drawn once from
# DEEP_CATALOGUE_SEED with the same distribution; the run seed renames
# the packets (which permutes the lifted columns) and picks the plan seed
# of every visit, so every round is fresh input with the same cost mix.
DEEP_CATALOGUE_SEED = "soplan/deep-packets/catalogue"
DEEP_CATALOGUE_SIZE = 40

# Seconds one round takes at the parent commit of the benchmark, at the
# nominal speed (run.REFERENCE_SECONDS) of a 2-core x86-64 machine with
# CPython 3.11; --seconds is divided by these to fix the number of rounds
# in a run.
NOMINAL_ROUND_SECONDS = {WIDE_USERS: 3.0, DEEP_PACKETS: 18.0, FRACTION_TABLES: 5.0}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run of about ``seconds`` at the nominal speed.  The
    count depends on nothing measured, so a faster commit runs the same
    jobs in less time instead of more jobs."""
    return max(1, round(seconds / NOMINAL_ROUND_SECONDS[workload]))


@dataclass
class Instance:
    """One generated input: the JSON document plus the benchmark's own
    copy of its entropy function, kept for the output checks."""

    index: int
    doc: dict
    n: int
    entropy: list  # entropy[mask] as Fraction, computed by the benchmark
    plan_seed: int | None = None
    path: Path | None = None


@dataclass
class Job:
    """One CLI command.  ``out`` names the artifact file the command
    writes through ``--out``, if any."""

    instance: Instance
    command: str
    argv: list
    out: Path | None = None
    plan: Path | None = None  # simulate: the plan the job before it wrote


# --------------------------------------------------------------- generation


def _random_holders(rng: random.Random, n: int, m: int) -> list:
    """Holder masks for ``m`` packets: each packet goes to a uniformly
    sized random nonempty set of users; every user ends up with at least
    one packet."""
    users = list(range(n))
    holders = []
    for _ in range(m):
        mask = 0
        for user in rng.sample(users, rng.randint(1, n)):
            mask |= 1 << user
        holders.append(mask)
    for user in users:
        if not any(h >> user & 1 for h in holders):
            holders[rng.randrange(m)] |= 1 << user
    return holders


def _coverage(n: int, holders: list, weights: list) -> list:
    """entropy[mask] = total weight of the packets some member of
    ``mask`` holds."""
    scale = math.lcm(*(w.denominator for w in weights))
    scaled = [int(w * scale) for w in weights]
    user_bits = [sum(1 << p for p, h in enumerate(holders) if h >> u & 1) for u in range(n)]
    covered = [0] * (1 << n)
    entropy = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        covered[mask] = bits = covered[mask ^ low] | user_bits[low.bit_length() - 1]
        total = 0
        while bits:
            bit = bits & -bits
            total += scaled[bit.bit_length() - 1]
            bits ^= bit
        entropy[mask] = Fraction(total, scale)
    return entropy


def _packet_instance(index: int, n: int, holders: list, names: list) -> Instance:
    packets = {str(u + 1): sorted(name for name, h in zip(names, holders) if h >> u & 1)
               for u in range(n)}
    doc = {"model": "packet", "users": list(range(1, n + 1)), "packets": packets}
    return Instance(index, doc, n, _coverage(n, holders, [Fraction(1)] * len(holders)))


def _packet_names(rng: random.Random, m: int) -> list:
    """``m`` distinct random packet ids in random order; the CLI lays out
    lifted columns in sorted id order, so the ids also permute columns."""
    names = []
    while len(names) < m:
        name = f"k{rng.getrandbits(40):010x}"
        if name not in names:
            names.append(name)
    return names


def _deep_catalogue() -> list:
    rng = random.Random(DEEP_CATALOGUE_SEED)
    catalogue = []
    for k in range(DEEP_CATALOGUE_SIZE):
        n = 5 + k % 2
        catalogue.append((n, _random_holders(rng, n, rng.randint(30, 50))))
    return catalogue


# Denominators of the table weights, used in turn so that every table's
# entropies have the same denominators: the cost of Fraction arithmetic
# grows with them, and drawing them at random made per-instance cost vary
# twofold.
WEIGHT_DENOMINATORS = (2, 3)


def _table_instance(rng: random.Random, index: int, n: int) -> Instance:
    """Weighted packet coverage with rational weights: a polymatroid by
    construction, with non-integer entropies."""
    m = rng.randint(2 * n, 3 * n)
    holders = _random_holders(rng, n, m)
    weights = [
        Fraction(rng.randint(1, 6), WEIGHT_DENOMINATORS[p % len(WEIGHT_DENOMINATORS)])
        for p in range(m)
    ]
    entropy = _coverage(n, holders, weights)
    users = list(range(1, n + 1))
    table = {
        ",".join(str(u) for u in users if mask >> (u - 1) & 1): str(entropy[mask])
        for mask in range(1 << n)
    }
    doc = {"model": "table", "users": users, "entropy": table}
    return Instance(index, doc, n, entropy)


def generate(workload: str, seed: int, rounds_count: int) -> list:
    """``rounds_count`` rounds of instances for ``workload`` at ``seed``.
    Same seed, same instances."""
    rng = random.Random(f"{workload}/{seed}")
    catalogue = _deep_catalogue() if workload == DEEP_PACKETS else None
    rounds = []
    index = 0
    for _ in range(rounds_count):
        current = []
        if workload == WIDE_USERS:
            for n in WIDE_ROUND:
                m = rng.randint(2 * n, 3 * n)
                holders = _random_holders(rng, n, m)
                current.append(_packet_instance(index, n, holders, _packet_names(rng, m)))
                index += 1
        elif workload == DEEP_PACKETS:
            for n, holders in catalogue:
                instance = _packet_instance(index, n, holders, _packet_names(rng, len(holders)))
                instance.plan_seed = rng.randrange(1 << 31)
                current.append(instance)
                index += 1
        elif workload == FRACTION_TABLES:
            for n in FRACTION_ROUND:
                current.append(_table_instance(rng, index, n))
                index += 1
        else:
            raise ValueError(f"unknown workload {workload!r}")
        rounds.append(current)
    return rounds


def write_inputs(rounds: list, directory: Path) -> None:
    """Write every instance's JSON under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for current in rounds:
        for instance in current:
            instance.path = directory / f"i{instance.index:04d}.json"
            instance.path.write_text(json.dumps(instance.doc, sort_keys=True))


def jobs_for(workload: str, instance: Instance, artifacts: Path) -> list:
    """The CLI commands one instance runs, in order."""
    src = str(instance.path)
    if workload == WIDE_USERS:
        return [
            Job(instance, "minrate", ["minrate", src]),
            Job(instance, "compset", ["compset", src, "--alpha", "lower-bound"]),
            Job(instance, "compset", ["compset", src, "--alpha", "exact"]),
        ]
    if workload == DEEP_PACKETS:
        plan_path = artifacts / f"plan{instance.index:04d}.json"
        transcript = artifacts / f"transcript{instance.index:04d}.jsonl"
        plan = Job(instance, "plan",
                   ["plan", src, "--seed", str(instance.plan_seed), "--out", str(plan_path)],
                   out=plan_path)
        simulate = Job(instance, "simulate", ["simulate", src, str(plan_path), "--out", str(transcript)],
                       out=transcript, plan=plan_path)
        return [plan, simulate]
    return [
        Job(instance, "validate", ["validate", src]),
        Job(instance, "minrate", ["minrate", src]),
        Job(instance, "enumerate", ["enumerate", src, "--verify"]),
    ]


# ------------------------------------------------------------------- checks


def _parse_block(text: str) -> int:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a subset: {text!r}")
    mask = 0
    for label in text[1:-1].split(","):
        mask |= 1 << (int(label) - 1)
    return mask


def _parse_rates(text: str, n: int) -> list:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a rate vector: {text!r}")
    rates = [None] * n
    for part in text[1:-1].split(","):
        label, value = part.split(":")
        rates[int(label) - 1] = Fraction(value.strip())
    if any(r is None for r in rates):
        raise ValueError("rate vector misses a user")
    return rates


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _partition_bound(entropy: list, full: int, blocks: list) -> Fraction:
    return sum((entropy[full] - entropy[b] for b in blocks), Fraction(0)) / (len(blocks) - 1)


def _bell_min_sum_rate(entropy: list, n: int) -> Fraction:
    """The partition bound maximized over every partition into at least
    two blocks; exhaustive, for the small user counts of deep-packets."""
    full = (1 << n) - 1
    best = None
    blocks: list = []

    def rec(pos: int):
        nonlocal best
        if pos == n:
            if len(blocks) >= 2:
                value = _partition_bound(entropy, full, blocks)
                if best is None or value > best:
                    best = value
            return
        for k in range(len(blocks)):
            blocks[k] |= 1 << pos
            rec(pos + 1)
            blocks[k] ^= 1 << pos
        blocks.append(1 << pos)
        rec(pos + 1)
        blocks.pop()

    rec(0)
    return best


def _eliminate(rows: list, q: int) -> int:
    """Rank of ``rows`` over GF(q) by forward elimination."""
    basis = []
    for row in rows:
        for pivot_row, pivot in basis:
            coeff = row[pivot]
            if coeff:
                row = [(a - coeff * b) % q for a, b in zip(row, pivot_row)]
        pivot = next((j for j, value in enumerate(row) if value), None)
        if pivot is not None:
            inverse = pow(row[pivot], -1, q)
            basis.append(([value * inverse % q for value in row], pivot))
    return len(basis)


def reference_task():
    """A fixed pure-Python task for measuring the machine's current speed.
    It mixes the two kinds of work soplan does: the exhaustive minimum
    sum-rate above on a 7-user rational table drawn from a constant seed
    (877 partitions, Fraction arithmetic) and the elimination of a dense
    48 x 48 matrix over GF(251)."""
    rng = random.Random("soplan/reference")
    instance = _table_instance(rng, 0, 7)
    matrix = [[rng.randrange(251) for _ in range(48)] for _ in range(48)]

    def task():
        _bell_min_sum_rate(instance.entropy, 7)
        _eliminate(matrix, 251)

    return task


def check_minrate(instance: Instance, stdout: str) -> str | None:
    """Primal-dual certificate at O(2^n) cost: the printed rates sum to
    the printed minimum and satisfy every Slepian-Wolf constraint, and
    the printed maximizing partition's bound equals that minimum."""
    n = instance.n
    h = instance.entropy
    full = (1 << n) - 1
    fields = _fields(stdout)
    value = Fraction(fields["min sum-rate"])
    rates = _parse_rates(fields["optimal rates"], n)
    if sum(rates) != value:
        return f"rates sum to {sum(rates)}, not the minimum {value}"
    subset_sum = [Fraction(0)] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        subset_sum[mask] = subset_sum[mask ^ low] + rates[low.bit_length() - 1]
        if mask != full and subset_sum[mask] < h[full] - h[full ^ mask]:
            return f"rates violate the Slepian-Wolf constraint on mask {mask:#x}"
    blocks = [_parse_block(b) for b in fields["maximizing partition"].split("|")]
    union = 0
    for block in blocks:
        union |= block
    if union != full or sum(b.bit_count() for b in blocks) != n or len(blocks) < 2:
        return "maximizing partition is not a partition of V"
    bound = _partition_bound(h, full, blocks)
    if bound != value:
        return f"maximizing partition bound {bound} differs from the minimum {value}"
    return None


def check_job(job: Job, stdout: str) -> str | None:
    """None if the output of a job that exited 0 is right, else why not."""
    try:
        if job.command == "minrate":
            return check_minrate(job.instance, stdout)
        if job.command == "compset":
            if "certified complementary" not in stdout and "certified optimal" not in stdout:
                return "compset printed no passing certificate"
            return None
        if job.command == "enumerate":
            lines = stdout.splitlines()
            count = int(_fields(stdout)["complementary subsets"])
            if count != len(lines) - 2:
                return f"enumerate printed {len(lines) - 2} subsets but counted {count}"
            for line in lines[2:]:
                _parse_block(line)
            return None
        if job.command == "validate":
            if "polymatroid axioms hold" not in stdout:
                return "a generated coverage table failed validation"
            return None
        if job.command == "plan":
            plan = json.loads(job.out.read_text())
            total = sum((Fraction(v) for v in plan["total_rates"].values()), Fraction(0))
            want = _bell_min_sum_rate(job.instance.entropy, job.instance.n)
            if total != want:
                return f"plan total {total} differs from the minimum sum-rate {want}"
            if not isinstance(plan["chunk_factor"], int) or plan["chunk_factor"] < 1:
                return "plan chunk factor is not a positive integer"
            return None
        if job.command == "simulate":
            plan = json.loads(job.plan.read_text())
            records = [json.loads(line) for line in job.out.read_text().splitlines()]
            closing = records[-1]
            total = sum((Fraction(v) for v in plan["total_rates"].values()), Fraction(0))
            want_rows = plan["chunk_factor"] * total
            if len(records) - 1 != want_rows:
                return f"{len(records) - 1} broadcast rows, expected {want_rows}"
            if any(rank != closing["required_rank"] for rank in closing["ranks"].values()):
                return "a user ended below the required rank"
            return None
    except (KeyError, ValueError, IndexError, json.JSONDecodeError, OSError) as exc:
        return f"unreadable {job.command} output: {exc!r}"
    raise ValueError(f"no check for command {job.command!r}")
