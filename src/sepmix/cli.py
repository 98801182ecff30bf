"""Command-line front end: gen, check-sep, classify, classify-spherical,
fit, validate, experiment."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .classify import ClassifierConfig, classify_general, classify_spherical
from .errors import SepmixError
from .experiment import (
    SUITES,
    ExperimentConfig,
    run_experiment,
    run_validation_suite,
)
from .io import load_params, load_samples, save_params, save_partition, save_samples
from .kmedian import _NORMALIZATIONS, fit_spherical_mixture, kmedian_exhaustive
from .model import LabeledSampleSet, median_radius, sample_mixture
from .separation import (
    _MODES,
    SeparationConfig,
    plant_separated_mixture,
    separation_margin,
)


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.params:
        mixture = load_params(args.params)
    else:
        if args.plant_n is None or args.plant_k is None:
            raise SystemExit("gen needs --params or --plant-n/--plant-k")
        config = SeparationConfig(t=args.plant_t, mode=args.plant_mode)
        mixture = plant_separated_mixture(
            n=args.plant_n,
            k=args.plant_k,
            shape_spec=(args.eig_lo, args.eig_hi),
            config=config,
            slack=args.plant_slack,
            rng=rng,
        )
        if args.out_params:
            save_params(args.out_params, mixture)
    if args.out:
        samples = sample_mixture(mixture, rng, args.count, seed=args.seed)
        save_samples(args.out, samples.points, samples.labels if args.labels else None)
        print(f"wrote {args.count} samples (n={mixture.dim}, k={mixture.k}) to {args.out}")
    return 0


def _cmd_check_sep(args) -> int:
    mixture = load_params(args.params)
    for comp in mixture.components:
        median_radius(comp)
    config = SeparationConfig(t=args.t, mode=args.mode)
    report = separation_margin(mixture, config)
    k = mixture.k
    print("," + ",".join(f"c{j}" for j in range(k)))
    for i in range(k):
        cells = [
            "" if i == j else "%.17g" % report.margins[i, j] for j in range(k)
        ]
        print(f"c{i}," + ",".join(cells))
    print(f"satisfied,{str(report.satisfied).lower()}")
    return 0 if report.satisfied else 1


def _load_sample_set(path) -> LabeledSampleSet | np.ndarray:
    points, labels = load_samples(path)
    if labels is None:
        return points
    return LabeledSampleSet(points=points, labels=labels)


def _cmd_classify(args) -> int:
    samples = _load_sample_set(args.samples)
    config = ClassifierConfig(k=args.k, w_min=args.wmin, delta=args.delta)
    partition = classify_general(samples, config)
    save_partition(args.out, partition.as_labels())
    if args.trace:
        doc = partition.trace.records()
        Path(args.trace).write_text(json.dumps(doc, indent=2) + "\n")
    sizes = [len(c) for c in partition.clusters]
    print(f"wrote partition with cluster sizes {sizes} to {args.out}")
    return 0


def _cmd_classify_spherical(args) -> int:
    samples = _load_sample_set(args.samples)
    partition = classify_spherical(samples, k=args.k, t=args.t)
    save_partition(args.out, partition.as_labels())
    sizes = [len(c) for c in partition.clusters]
    print(f"wrote partition with cluster sizes {sizes} to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    points, _ = load_samples(args.samples)
    rng = np.random.default_rng(args.seed)
    result = fit_spherical_mixture(
        points, args.k, rng, normalization=args.normalization
    )
    doc = {
        "centers": result.solution.centers.tolist(),
        "center_indices": result.solution.center_indices.tolist(),
        "assignment": result.solution.assignment.tolist(),
        "objective": result.solution.objective,
        "sigma_hat": result.sigma,
        "log_likelihood": result.log_likelihood,
        "weights": result.weights.tolist(),
        "normalization": result.normalization,
    }
    if args.oracle:
        oracle = kmedian_exhaustive(points, args.k)
        doc["oracle_objective"] = oracle.objective
        doc["oracle_ratio"] = (
            result.solution.objective / oracle.objective
            if oracle.objective > 0
            else 1.0
        )
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    options = {}
    if args.config:
        options = json.loads(Path(args.config).read_text())
    rng = np.random.default_rng(args.seed)
    suites = SUITES if args.suite == "all" else [args.suite]
    reports = [run_validation_suite(s, options.get(s, options), rng) for s in suites]
    doc = {
        "seed": args.seed,
        "suites": reports,
        "all_pass": all(r["all_pass"] for r in reports),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for r in reports:
        print(f"{r['suite']}: {'pass' if r['all_pass'] else 'FAIL'}", file=sys.stderr)
    return 0 if doc["all_pass"] else 1


def _cmd_experiment(args) -> int:
    doc = json.loads(Path(args.config).read_text())
    if isinstance(doc, dict):  # from_dict refuses anything else
        if args.out_dir:
            doc["out_dir"] = args.out_dir
        if args.seed is not None:
            doc["master_seed"] = args.seed
    config = ExperimentConfig.from_dict(doc)
    result = run_experiment(config)
    exact = result.exact_match_count
    print(
        f"{config.scenario}: {exact}/{config.trials} exact matches, "
        f"{result.error_count} errors"
    )
    if config.out_dir:
        print(f"artifacts in {config.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepmix",
        description="Classify, validate, and fit mixtures of separated Gaussians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a mixture, or plant a separated one")
    p.add_argument("--params", help="mixture parameter JSON to sample from")
    p.add_argument("--plant-n", type=int, help="dimension for planting")
    p.add_argument("--plant-k", type=int, help="component count for planting")
    p.add_argument("--plant-t", type=float, default=10.0)
    p.add_argument("--plant-mode", choices=_MODES, default="practical")
    p.add_argument("--plant-slack", type=float, default=1.5)
    p.add_argument("--eig-lo", type=float, default=1.0)
    p.add_argument("--eig-hi", type=float, default=1.0)
    p.add_argument("--out-params", help="where to write planted parameters")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="samples CSV path")
    p.add_argument("--labels", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check-sep", help="print the pairwise separation margins")
    p.add_argument("--params", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--mode", choices=_MODES, default="paper")
    p.set_defaults(func=_cmd_check_sep)

    p = sub.add_parser("classify", help="peel a sample into k clusters")
    p.add_argument("--samples", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--wmin", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    # accepted and ignored, so command lines written for the old t option
    # still run; the peel radii do not depend on t
    p.add_argument("--t", type=float, help=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write per-peel trace JSON here")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("classify-spherical", help="closest-pair warm-up classifier")
    p.add_argument("--samples", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify_spherical)

    p = sub.add_parser("fit", help="k-median max-likelihood spherical fit")
    p.add_argument("--samples", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true", help="exhaustive optimum")
    p.add_argument("--normalization", choices=_NORMALIZATIONS, default="paper")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("validate", help="run Monte Carlo concentration suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="suite options JSON")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("experiment", help="run a seeded multi-trial experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SepmixError, OSError, ValueError) as exc:
        # bad inputs (library contract violations, unreadable files, invalid
        # configs) get one clean line instead of a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
