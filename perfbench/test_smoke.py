"""Smoke test of the benchmark itself, at tiny request sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_workloads_exist():
    assert sorted(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_seed_one_request_list(name):
    # Another interpreter, with another hash seed, draws the same lists.
    code = ("import sys, workloads; w = workloads.WORKLOADS[sys.argv[1]]; "
            "print(repr([workloads.cycle(w, 7, i, t) "
            "for t in (False, True) for i in range(3)]))")
    other = subprocess.run(
        [sys.executable, "-c", code, name], cwd=HERE, capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONHASHSEED": "1"})
    w = workloads.WORKLOADS[name]
    here = [workloads.cycle(w, 7, i, t) for t in (False, True)
            for i in range(3)]
    assert other.stdout.strip() == repr(here)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_variant_parses(name):
    from repro.cli import build_parser

    w = workloads.WORKLOADS[name]
    parser = build_parser()
    for stratum in w.strata + w.tiny:
        for argv in stratum.variants:
            parser.parse_args(list(argv) + ["--json"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_end_to_end_metrics_and_digest(name, capsys):
    first = run.run_one(name, 11, 0.5, trace=False, tiny=True)
    out = capsys.readouterr().out
    assert first["correct"], out
    assert first["failed"] == 0 and first["attempted"] >= 1
    declared = _declared("end_to_end")
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    assert got == declared
    for metric, unit in declared.items():
        line = next(l for l in out.splitlines() if l.split()[:1] == [metric])
        assert unit in line.split()
    # Same seed, same outputs: the cycle-0 digests agree.
    deadline = time.monotonic() + run.RUN_BUDGET_S
    _, a = run.end_to_end(deadline, name, 11, 0.5, tiny=True)
    _, b = run.end_to_end(deadline, name, 11, 0.5, tiny=True)
    assert a["digest"] == b["digest"]
    assert not a["errors"] and not b["errors"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_per_layer_metrics(name, capsys):
    result = run.run_one(name, 11, 0.5, trace=True, tiny=True)
    out = capsys.readouterr().out
    assert result["correct"], out
    declared = _declared("per_layer")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    for layer in layers.LAYER_NAMES:
        assert f"{layer}.self_s" in out


def test_missing_import_site_is_a_named_error(monkeypatch):
    import repro.train.step

    layers.preload()
    monkeypatch.delattr(repro.train.step, "lower_step")
    with pytest.raises(layers.ImportSiteError, match="train.lowering"):
        layers.install(layers.Recorder())


def test_install_is_undone():
    import repro.train.lowering as lowering

    before = lowering.lower_step
    uninstall = layers.install(layers.Recorder())
    assert lowering.lower_step is not before
    uninstall()
    assert lowering.lower_step is before
