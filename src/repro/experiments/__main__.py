"""CLI for the experiment harness: ``python -m repro.experiments ...``."""

from __future__ import annotations

import argparse
import inspect
import sys

from repro import obs
from repro.experiments import all_experiments


def main(argv: list[str] | None = None) -> int:
    experiments = all_experiments()
    ids = list(experiments)
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's theorem-by-theorem experiments.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help=f"experiment id ({ids[0]}..{ids[-1]}) or 'all' (default)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full parameter sweeps (default: quick mode)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="drive shard-aware experiments (e02, e06, e11) through an "
        "N-shard ShardedStreamEngine and report merged-state equivalence",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="checkpoint-aware experiments (e02, e06, e11) additionally run "
        "a kill-and-resume certification against this checkpoint file: an "
        "interrupted run resumed from PATH must reproduce the uninterrupted "
        "run's final state bit-for-bit",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")

    if args.experiment == "all":
        targets = list(experiments.items())
    elif args.experiment in experiments:
        targets = [(args.experiment, experiments[args.experiment])]
    else:
        parser.error(
            f"unknown experiment {args.experiment!r}; known: all, {', '.join(ids)}"
        )

    for experiment_id, run in targets:
        kwargs = {"quick": not args.full}
        parameters = inspect.signature(run).parameters
        if args.shards > 1:
            if "shards" in parameters:
                kwargs["shards"] = args.shards
            elif args.experiment != "all":
                print(f"[{experiment_id} has no sharded path; running unsharded]")
        if args.checkpoint is not None:
            if "checkpoint" in parameters:
                kwargs["checkpoint"] = args.checkpoint
            elif args.experiment != "all":
                print(f"[{experiment_id} has no checkpoint path; skipping it]")
        # obs.timer keeps the printed wall time even when the registry is
        # disabled, and otherwise records the run into the shared
        # repro_phase_seconds{phase="experiment"} family.
        with obs.timer("experiment", experiment=experiment_id) as timed:
            result = run(**kwargs)
        print(result.render())
        print(f"[{experiment_id} took {timed.seconds:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
