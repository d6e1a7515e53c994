"""One benchmark process: runs requests in-process and prints one JSON
line of raw results for ``run.py``.

Modes:

``setup``  import the CLI in this fresh interpreter, answer the
           workload's set-up request, print the clock.
``round``  one round of the closed loop: the run's request list in this
           round's seeded order, one client, no tracing.
``pass``   cycle 0 once, with ``--traced`` under the layer wrappers.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List, Optional

sys.dont_write_bytecode = True
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


def _answer(main: Callable, argv) -> tuple:
    """Run one request; return (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error: Optional[str] = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a request that raises is a failed request
        code = None
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if code != 0 and error is None:
        error = f"exit {code}: {err.getvalue().strip()[-300:]}"
    return seconds, code, out.getvalue(), error


class Client:
    """Runs requests through ``repro.cli.main`` and checks each answer.

    The CLI entry point is looked up on every call, so wrappers
    installed after construction are used.
    """

    def __init__(self) -> None:
        import repro.cli

        self.cli = repro.cli
        self.digests: Dict[tuple, str] = {}
        self.records: List[dict] = []

    def request(self, req: workloads.Request) -> dict:
        seconds, code, stdout, error = _answer(self.cli.main, req.argv)
        digest = None
        if error is None:
            try:
                digest = checks.check_output(list(req.argv), stdout)
            except checks.CheckFailed as exc:
                error = f"check failed: {exc}"
        if digest is not None:
            first = self.digests.setdefault(req.argv, digest)
            if first != digest:
                error = "output differs from an earlier run of the request"
        rec = {"stratum": req.stratum, "argv": " ".join(req.argv),
               "seconds": seconds, "ok": error is None, "digest": digest,
               "error": error}
        self.records.append(rec)
        return rec

    def warm_up(self, w: workloads.Workload) -> None:
        """Answer the set-up request outside any timing: lazy imports a
        user pays once per process are what ``setup_s`` measures."""
        self.request(workloads.Request("warm-up",
                                       w.setup_request + ("--json",)))
        self.records.clear()


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup(w: workloads.Workload) -> dict:
    import repro.cli

    seconds, code, stdout, error = _answer(
        repro.cli.main, w.setup_request + ("--json",))
    answered = time.perf_counter()
    if error is None:
        try:
            checks.check_output(list(w.setup_request), stdout)
        except checks.CheckFailed as exc:
            error = f"check failed: {exc}"
    return {"answered": answered, "error": error}


def mode_round(w: workloads.Workload, seed: int, cycles: int, index: int,
               tiny: bool) -> dict:
    client = Client()
    client.warm_up(w)
    requests = workloads.request_list(w, seed, cycles, tiny)
    order = workloads.round_order(w, seed, index, len(requests))
    # The host's speed is probed before every request and after the
    # last, outside the request timings.
    probes = []
    start = time.perf_counter()
    for i in order:
        probes.append(calibrate.probe())
        client.request(requests[i])
    probes.append(calibrate.probe())
    elapsed = time.perf_counter() - start
    # Records in list order, so rounds line up request by request.
    records: List[dict] = [{}] * len(requests)
    for i, rec in zip(order, client.records):
        records[i] = rec
    return {"elapsed": elapsed, "records": records, "probes": probes,
            "peak_rss_mb": _peak_rss_mb()}


def mode_pass(w: workloads.Workload, seed: int, tiny: bool,
              traced: bool) -> dict:
    import layers

    client = Client()
    client.warm_up(w)
    requests = workloads.cycle(w, seed, 0, tiny)
    rec = layers.Recorder()
    layers.preload()
    uninstall = layers.install(rec) if traced else None
    try:
        start = time.perf_counter()
        for req in requests:
            rec.begin_request(req.stratum)
            client.request(req)
        wall = time.perf_counter() - start
    finally:
        if uninstall is not None:
            uninstall()
    out = {"wall": wall, "records": client.records}
    if traced:
        out.update(self_s=rec.self_s, calls=rec.calls, counters=rec.counters,
                   spans_s=rec.spans_s,
                   top_by_stratum=layers.top_layer_by_tag(rec))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "round", "pass"))
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycles", type=int, default=1)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        result = mode_setup(w)
    elif args.mode == "round":
        result = mode_round(w, args.seed, args.cycles, args.round, args.tiny)
    else:
        result = mode_pass(w, args.seed, args.tiny, args.traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
