"""Pipeline parallelism with real numerics: staged execution equals
monolithic execution bit for bit.

Run:
    python examples/pipeline_numerics.py

Builds a 4-layer transformer, partitions it into 2 pipeline ranks with 2
virtual stages each, executes a real flexible-PP schedule — activations
actually flow between stages — and checks the gradients against the
monolithic model bitwise under emulated BF16.  Then renders the schedule's
timing on the simulator so you can see what the numerics just executed.
"""

import numpy as np

from repro.numerics import (
    ALL_BF16,
    TinyConfig,
    TinyTransformer,
    bitwise_equal,
    grads_in_order,
    make_pipeline,
)
from repro.numerics.hybrid import HybridDpPpTrainer
from repro.pp.analysis import ScheduleShape
from repro.pp.layout import build_layout
from repro.pp.render import render_timeline
from repro.pp.schedule import build_flexible_schedule
from repro.train.cost import StageCost
from repro.train.executor import execute_pipeline


def staged_vs_monolithic() -> None:
    print("=== Staged pipeline execution vs monolithic (BF16) ===")
    cfg = TinyConfig(n_layers=4)
    shape = ScheduleShape(pp=2, v=2, nc=2, nmb=4)
    schedule = build_flexible_schedule(shape)
    model = TinyTransformer.create(cfg, seed=1)
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, cfg.vocab, (4, 12))
    targets = rng.integers(0, cfg.vocab, (4, 12))

    pipe = make_pipeline(model, schedule, ALL_BF16)
    loss, staged = pipe.run_step(tokens, targets)
    mono = grads_in_order(model, tokens, targets, range(4), ALL_BF16)
    print(f"pipelined loss {loss:.4f}; gradients bitwise equal to "
          f"monolithic: {bitwise_equal(staged, mono)}")

    print("\n=== The schedule the numerics just executed (timing view) ===")
    layout = build_layout(4, 2, 2)
    run = execute_pipeline(
        schedule, layout,
        lambda s: StageCost(1.0 * s.n_layers, 0, 0),
        lambda s: StageCost(2.0 * s.n_layers, 0, 0),
        p2p_seconds=0.2,
    )
    print(render_timeline(run, width=90))
    print("(digits = forward micro-batch, letters = backward, "
          "dots = bubbles)")


def hybrid_training() -> None:
    print("\n=== Hybrid DP(2) x PP(2) training ===")
    cfg = TinyConfig(n_layers=4)
    shape = ScheduleShape(pp=2, v=2, nc=2, nmb=4)
    trainer = HybridDpPpTrainer(
        model=TinyTransformer.create(cfg, seed=3),
        schedule=build_flexible_schedule(shape),
        dp=2,
        precision=ALL_BF16,
    )
    rng = np.random.default_rng(4)
    tokens = rng.integers(0, cfg.vocab, (trainer.global_batch, 12))
    targets = rng.integers(0, cfg.vocab, (trainer.global_batch, 12))
    losses = trainer.train(tokens, targets, steps=6, lr=0.3)
    print("loss curve:", " -> ".join(f"{loss:.3f}" for loss in losses))


if __name__ == "__main__":
    staged_vs_monolithic()
    hybrid_training()
