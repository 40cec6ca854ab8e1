"""The benchmark's tracer patches soplan functions and methods by name,
so a rename in ``src`` must fail here, not only in the benchmark."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from soplan import ASYMPTOTIC, multistage, plan_multistage, sources
from tests.conftest import make_five_user

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall():
    merge, entropy = multistage.merge_super_user, sources._SourceBase.__dict__["entropy"]
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert multistage.merge_super_user is not merge
        plan_multistage(make_five_user(), ASYMPTOTIC)
        assert tracer.stat("multistage.merge_super_user")[0] == 2
        assert tracer.stat("multistage.initial_system")[0] == 1
    finally:
        tracer.uninstall()
    assert multistage.merge_super_user is merge
    assert sources._SourceBase.__dict__["entropy"] is entropy
