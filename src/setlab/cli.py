"""Command-line surface: verification suites, collision search, contour grids, training.

One entrypoint (setlab) with four subcommands. Exit codes are a stable
contract: 0 success, 1 verification check failed, 2 configuration or search
error, 3 training divergence. Every command takes --seed and is deterministic
given it; every output file carries a schema field and 17-significant-digit
floats.
"""

import argparse
import os
import sys

import numpy as np

from ._jsonio import SCHEMA_VERSION, dump_file, dumps, format_float, load_file
from .approx import (
    NEWTON_STARTS,
    emit_contour_grid,
    find_collision,
    load_phispec,
    lse_max_batch,
    save_certificate,
    save_phispec,
    write_contour_csv,
)
from .errors import ConfigError, DivergenceError, SearchExhausted, SetlabError
from .nnet import TrainConfig, deepsets_eval_batch, load_checkpoint, save_checkpoint, train
from .sets import f_star_batch
from .verify import SUITES, run_suite


def cmd_collide(phi_path, tol=1e-8, budget=NEWTON_STARTS, out_path=None, seed=0):
    """Certify a pooled-encoding collision for the encoder stored at phi_path."""
    cert = find_collision(load_phispec(phi_path), tol_zero=tol, budget=budget, seed=seed)
    if out_path is not None:
        save_certificate(cert, out_path, seed=seed)
    return cert


def _contour_fn(name, params):
    """The function of a contour grid, mapping (n, 2) points to n values."""
    if name == "max":
        return lambda XY: np.max(XY, axis=1)
    if name == "lse_max":
        if "a" not in params:
            raise ConfigError("lse_max contours need params {\"a\": sharpness} via --config")
        try:
            a = float(params["a"])
        except (TypeError, ValueError):
            raise ConfigError(f"lse_max sharpness must be a number, got {params['a']!r}") from None
        return lambda XY: lse_max_batch(XY, a)
    if name == "f_star":
        return f_star_batch
    if os.path.exists(name):
        model, _ = load_checkpoint(name)
        return lambda XY: deepsets_eval_batch(model, XY)
    raise ConfigError(
        f"unknown contour function {name!r}; expected max, lse_max, f_star, or a checkpoint path"
    )


def cmd_contours(fn, resolution=201, params=None, out_path=None):
    """Planar contour grid of a named function or a trained checkpoint, as CSV rows."""
    rows = emit_contour_grid(_contour_fn(fn, params or {}), resolution=resolution)
    if out_path is not None:
        write_contour_csv(rows, out_path)
    return rows


def cmd_train(config_path, out_dir, seed=None):
    """Train from a JSON config; writes checkpoint, metrics, and the exported encoder.

    seed, when given, overrides the config file's seed. Returns
    (model, metrics, paths).
    """
    cfg = load_file(config_path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"train config must be a JSON object, got {type(cfg).__name__}")
    if seed is not None:
        cfg = {**cfg, "seed": int(seed)}
    config = TrainConfig.from_config(cfg)
    model, metrics = train(config)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "checkpoint": os.path.join(out_dir, "checkpoint.json"),
        "metrics": os.path.join(out_dir, "metrics.json"),
        "encoder": os.path.join(out_dir, "encoder.json"),
    }
    save_checkpoint(model, config, paths["checkpoint"], metrics=metrics)
    dump_file({"schema": SCHEMA_VERSION, **metrics}, paths["metrics"])
    save_phispec(model.encoder_spec, paths["encoder"])
    return model, metrics, paths


def _run_verify(args):
    report = run_suite(args.suite, seed=args.seed, tol=args.tol, scale=args.budget)
    if args.out is not None:
        dump_file(report, args.out)
    for row in report["checks"]:
        print(
            f"{row['status']:<4s} {row['name']}"
            f"  residual={format_float(row['residual'])}"
            f"  tol={format_float(row['tolerance'])}"
        )
    s = report["summary"]
    print(f"{s['pass']} passed, {s['fail']} failed, {s['skip']} skipped")
    if args.out:
        print(f"report written to {args.out}")
    return 0 if s["fail"] == 0 else 1


def _run_collide(args):
    try:
        cert = cmd_collide(
            args.phi, tol=args.tol, budget=args.budget, out_path=args.out, seed=args.seed
        )
    except SearchExhausted as exc:
        if args.out:
            dump_file(
                {
                    "schema": SCHEMA_VERSION,
                    "error": "SearchExhausted",
                    "message": str(exc),
                    "best_residual": exc.best_residual,
                    "trace": exc.trace,
                },
                args.out,
            )
            print(f"search exhausted; trace written to {args.out}", file=sys.stderr)
        else:
            print(f"search exhausted: {exc}", file=sys.stderr)
        return 2
    print(
        f"collision certified at M={cert.M}:"
        f" phi_residual={format_float(cert.phi_residual)}"
        f" f_gap={format_float(cert.f_gap)}"
    )
    if args.out:
        print(f"certificate written to {args.out}")
    else:
        print(dumps(cert.to_config()))
    return 0


def _run_contours(args):
    params = {}
    if args.config:
        params = load_file(args.config)
        if not isinstance(params, dict):
            raise ConfigError("contour params file must hold a JSON object")
    rows = cmd_contours(args.fn, resolution=args.resolution, params=params, out_path=args.out)
    print(f"{len(rows)} grid points written to {args.out}")
    return 0


def _run_train(args):
    _, metrics, paths = cmd_train(args.config, args.out, seed=args.seed)
    print(
        f"final loss {format_float(metrics['final_loss'])},"
        f" grid max error {format_float(metrics['grid_max_error'])}"
    )
    for name in ("checkpoint", "metrics", "encoder"):
        print(f"{name} written to {paths[name]}")
    return 0


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _build_parser():
    parser = argparse.ArgumentParser(prog="setlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", default="all", help="one of: " + ", ".join(SUITES))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=float, default=None, help="override every check's tolerance")
    p.add_argument(
        "--budget", type=float, default=1.0, help="sample-count multiplier in (0, 1]"
    )
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("collide", help="search for a pooled-encoding collision")
    p.add_argument("phi", help="path to an encoder spec JSON file")
    p.add_argument("--tol", type=float, default=1e-8, help="zero tolerance for the residual")
    p.add_argument(
        "--budget",
        type=int,
        default=NEWTON_STARTS,
        help="most sorted-Newton starts to run (default %(default)s)",
    )
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="write the certificate (or failure trace) here")
    p.set_defaults(run=_run_collide)

    p = sub.add_parser("contours", help="emit a planar contour grid as CSV")
    p.add_argument("fn", help="max, lse_max, f_star, or a checkpoint path")
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--config", default=None, help="JSON file of function params, e.g. {\"a\": 2}")
    p.add_argument("--seed", type=_seed, default=0, help="accepted for interface parity; grids are deterministic")
    p.add_argument("--out", required=True, help="write the CSV grid here")
    p.set_defaults(run=_run_contours)

    p = sub.add_parser("train", help="train a sum-decomposition model from a JSON config")
    p.add_argument("--config", required=True, help="path to a training config JSON file")
    p.add_argument("--seed", type=_seed, default=None, help="override the config file's seed")
    p.add_argument("--out", required=True, help="directory for checkpoint, metrics, and encoder")
    p.set_defaults(run=_run_train)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SetlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
