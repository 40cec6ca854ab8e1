"""A span tracer that wraps soplan's public functions from the outside.

Each wrapped call records one span (job, name, start, end, parent) in
flat arrays, so millions of spans stay cheap to keep in memory; they are
written out once the run ends.  Alongside the spans the tracer keeps
per-name totals (calls, time, self time) and a few counts read off the
calls' arguments and results.

soplan modules import each other's functions by name
(``from .omniscience import min_sum_rate``), so a function is replaced in
every soplan module that holds it, not only where it is defined;
methods are replaced on their classes.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

ASYMPTOTIC = "asymptotic"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.job = -1
        self.span_job = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self.calls: list = []
        self.total: list = []
        self.self_time: list = []
        self.counts: Counter = Counter()
        self._seen: set = set()
        self._restore: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def start_job(self, job: int) -> None:
        self.job = job
        self._seen.clear()

    def begin(self, nid: int) -> list:
        index = len(self.span_end)
        self.span_job.append(self.job)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def finish(self, frame: list) -> None:
        end = perf_counter()
        index, child = frame
        self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        nid = self.span_name[index]
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def first_time(self, key) -> bool:
        """True the first time ``key`` is seen in the current job."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(frame)
            if after is not None:
                after(result)
            return result

        return wrapper

    def patch_function(self, modules: list, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` in every module of ``modules`` that
        binds it, under any name."""
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, before, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, original))

    def patch_method(self, cls, attr: str, name: str, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, before, after))
        self._restore.append((cls, attr, original))

    def install(self) -> None:
        """Wrap the public functions of every soplan layer."""
        from soplan import compsetso, gf, multistage, omniscience, rlnc, sources, submodular

        modules = [m for key, m in sys.modules.items() if key == "soplan" or key.startswith("soplan.")]
        fn = functools.partial(self.patch_function, modules)
        count = self.counts

        # sources
        fn(sources, "load_source", "sources.load_source")
        fn(sources, "validate_polymatroid", "sources.validate_polymatroid")

        def entropy_before(args, kwargs):
            source, subset = args[0], args[1] if len(args) > 1 else kwargs["subset"]
            mask = subset if isinstance(subset, int) else source.ground.mask(subset)
            if self.first_time(("entropy", source, mask)):
                count["sources.entropy.distinct"] += 1

        self.patch_method(sources._SourceBase, "entropy", "sources.entropy", before=entropy_before)

        # gf
        def add_after(grew):
            if grew:
                count["gf.add.grew"] += 1

        self.patch_method(gf.RowSpace, "add", "gf.add", after=add_after)
        self.patch_method(gf.RowSpace, "contains", "gf.contains")
        self.patch_method(gf.RowSpace, "clone", "gf.clone")
        fn(gf, "random_combination", "gf.random_combination")

        # submodular
        def prefix_after(result):
            count["submodular.minimize_over_prefix.candidates"] += result.candidates_examined

        fn(submodular, "minimize_over_prefix", "submodular.minimize_over_prefix", after=prefix_after)
        fn(submodular, "run_rate_update", "submodular.run_rate_update")
        fn(submodular, "dilworth_truncation", "submodular.dilworth_truncation")

        # omniscience
        def min_sum_rate_before(args, kwargs):
            source = args[0]
            subset = args[1] if len(args) > 1 else kwargs.get("subset")
            model = args[2] if len(args) > 2 else kwargs.get("model", ASYMPTOTIC)
            ground = source.ground
            mask = ground.full_mask if subset is None else ground.mask(subset)
            if self.first_time(("min_sum_rate", source, mask, model)):
                count["omniscience.min_sum_rate.cold"] += 1
            if not getattr(source, "integral", True):
                count["omniscience.min_sum_rate.fraction_calls"] += 1

        fn(omniscience, "min_sum_rate", "omniscience.min_sum_rate", before=min_sum_rate_before)
        fn(omniscience, "check_sw_achievable", "omniscience.check_sw_achievable")
        fn(omniscience, "enumerate_complementary", "omniscience.enumerate_complementary")
        fn(omniscience, "optimal_rate_vector", "omniscience.optimal_rate_vector")

        # compsetso
        def comp_set_after(outcome):
            count["compsetso.comp_set_so.candidates"] += outcome.candidates_examined

        fn(compsetso, "comp_set_so", "compsetso.comp_set_so", after=comp_set_after)
        fn(compsetso, "certify_outcome", "compsetso.certify_outcome")

        # multistage
        def plan_after(plan):
            count["multistage.stages"] += len(plan.stages)
            count["multistage.chunk_factor.max"] = max(
                count["multistage.chunk_factor.max"], plan.chunk_factor
            )

        fn(multistage, "plan_multistage", "multistage.plan_multistage", after=plan_after)
        fn(multistage, "merge_super_user", "multistage.merge_super_user")
        fn(multistage, "initial_system", "multistage.initial_system")

        # rlnc
        def execute_after(transcript):
            count["rlnc.broadcasts"] += len(transcript.broadcasts)
            count["rlnc.stages"] += len(transcript.stage_reports)
            count["rlnc.stage_attempts"] += sum(r.attempts for r in transcript.stage_reports)
            count["rlnc.users"] += len(transcript.decoded)
            count["rlnc.decoded"] += sum(1 for ok in transcript.decoded.values() if ok)

        fn(rlnc, "execute_plan", "rlnc.execute_plan", after=execute_after)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --------------------------------------------------------------- output

    def stat(self, name: str) -> tuple:
        """(calls, total seconds, self seconds) for a span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def write(self, path) -> None:
        """Write every span as tab-separated text: job, name, parent span
        index (-1 for a job's root), start and end in seconds."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job\tname\tparent\tstart\tend\n")
            for job, nid, parent, start, end in zip(
                self.span_job, self.span_name, self.span_parent, self.span_start, self.span_end
            ):
                fh.write(f"{job}\t{names[nid]}\t{parent}\t{start:.9f}\t{end:.9f}\n")
