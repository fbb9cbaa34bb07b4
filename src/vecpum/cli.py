"""Command-line driver for the benchmark experiments and custom data."""

import argparse
import sys

from .errors import ConfigError, VecPumError
from .experiment import default_config, emit_csv, emit_summary, run_experiment
from .geometry import MODES


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vecpum",
        description="Reconstruct div/curl-free vector fields and their "
                    "scalar potentials from scattered samples.")
    parser.add_argument("--problem", required=True,
                        choices=["star2d", "sphere", "ball", "custom"])
    parser.add_argument("--nodes-file", help="custom: sample points, one "
                        "whitespace-separated point per line")
    parser.add_argument("--values-file", help="custom: sample vectors, one "
                        "per line, same order as the nodes")
    parser.add_argument("--kernel", choices=["imq", "matern4"])
    parser.add_argument("--eps", type=float, help="kernel shape parameter")
    parser.add_argument("--q", type=float, help="nodes-per-patch control")
    parser.add_argument("--delta", type=float, help="patch overlap")
    parser.add_argument("--gamma", type=float, default=4.0,
                        help="glue least-squares weighting (0 = unweighted)")
    parser.add_argument("--n", type=int, action="append",
                        help="node count; repeat for a refinement sweep")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eval-n", type=int, default=20000,
                        help="evaluation-set size")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--mode", choices=MODES,
                        help="custom: interpolation mode override")
    parser.add_argument("--surface", choices=["plane", "sphere", "r2", "r3"],
                        help="custom: geometry of the samples")
    parser.add_argument("--area", type=float,
                        help="custom: domain area/volume for patch sizing")
    parser.add_argument("--workers", type=int, default=1,
                        help="threads for the patch fits and batch "
                             "evaluation; results do not depend on it")
    return parser


def config_from_args(args):
    given = dict(kernel=args.kernel, eps=args.eps, q=args.q, delta=args.delta)
    if args.problem == "custom":
        if not args.nodes_file or not args.values_file:
            raise VecPumError("custom problems need --nodes-file and "
                              "--values-file")
    else:
        # A custom run is one fit of the supplied samples, so --n and
        # --trials apply to the built-in problems only.
        given.update(n_values=tuple(args.n) if args.n else None,
                     trials=args.trials)
    return default_config(
        args.problem, gamma=args.gamma, seed=args.seed, eval_n=args.eval_n,
        nodes_file=args.nodes_file, values_file=args.values_file,
        mode=args.mode, surface=args.surface, area=args.area,
        workers=args.workers,
        **{k: v for k, v in given.items() if v is not None})


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (VecPumError, ValueError) as exc:
        print(f"vecpum: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(config)
    except ConfigError as exc:
        print(f"vecpum: configuration error: {exc}", file=sys.stderr)
        return 2
    except (VecPumError, ValueError) as exc:
        print(f"vecpum: run failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"vecpum: i/o error: {exc}", file=sys.stderr)
        return 1
    emit_summary(result)
    if args.out:
        try:
            emit_csv(result, args.out)
        except OSError as exc:
            print(f"vecpum: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
