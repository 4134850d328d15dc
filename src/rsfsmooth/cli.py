"""Command-line front end.

Subcommands: gen-graph, exact, smooth, sweep-alpha, denoise, ssl.
Exit codes: 0 ok, 2 usage, 3 data error, 4 numerical failure.
All outputs are deterministic byte-for-byte given --seed.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import _native
from .errors import DataError, NumericalError
from .forests import _seed
from .graphs import gen_graph, load_graph, load_positions, save_graph
from .linalg import SmoothingProblem, solve_exact_cg
from .signals import PSNR_CONVENTION, SIGNAL_KEYS, load_signal, synthetic_signal

# The estimators, the experiment drivers and the classifier are imported
# by the commands that run them, so a process loads only what its command
# uses.


def _parse_kv(text, what):
    params = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"bad {what} parameter {part!r} (expected key=value)")
        key, val = part.split("=", 1)
        try:
            params[key.strip()] = float(val) if "." in val or "e" in val.lower() else int(val)
        except ValueError:
            raise DataError(f"bad {what} value {part!r}") from None
    return params


def _pow10(e):
    """10 ** e by the C library's pow, inf where that overflows."""
    try:
        return math.pow(10.0, e)
    except OverflowError:
        return math.inf


def _parse_grid(text):
    """"lin:a,b,n", "log:a,b,n", or a comma-separated list of values."""
    if text.startswith("lin:") or text.startswith("log:"):
        kind, rest = text[:3], text[4:]
        parts = rest.split(",")
        if len(parts) != 3:
            raise DataError(f"grid spec {text!r} needs start,stop,count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise DataError(f"cannot parse grid spec {text!r}") from None
        if count < 1:
            raise DataError("grid count must be >= 1")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise DataError(f"grid endpoints must be finite, got {text!r}")
        if kind == "log" and (start <= 0 or stop <= 0):
            raise DataError("log grid endpoints must be positive")
        try:
            if kind == "lin":
                return np.linspace(start, stop, count)
            exponents = np.linspace(math.log10(start), math.log10(stop), count)
        except (ValueError, MemoryError):  # a count numpy cannot allocate
            raise DataError(f"grid count {count} is too large") from None
        # np.logspace, but with the C library's pow: numpy's power picks a
        # SIMD kernel by CPU, and its last bit with it
        return np.fromiter(map(_pow10, exponents), float, count)
    try:
        return np.array([float(v) for v in text.split(",") if v])
    except ValueError:
        raise DataError(f"cannot parse grid {text!r}") from None


def _resolve_graph(args):
    name, _, rest = (args.gen or "").partition(":")
    name = name.strip()
    if bool(args.coords) != (name == "knn"):
        raise DataError("--coords goes with --gen knn, and only with it")
    if getattr(args, "graph", None):
        return load_graph(args.graph)
    params = _parse_kv(rest, f"{name} generator")
    if args.coords:
        params.setdefault("coords", load_positions(args.coords))  # gen_graph refuses a spec's own
    return gen_graph(name, seed=args.seed, **params)


def _resolve_signal(args, graph):
    name, _, rest = args.signal.partition(":")
    if name in SIGNAL_KEYS:
        return synthetic_signal(graph, name, seed=args.seed, **_parse_kv(rest, f"{name} signal"))
    return load_signal(args.signal, graph.n)


def _finite(v):
    """v, if it is finite. Both writers pass every float through here
    before they open the file (an array only if it holds a non-finite
    value), so a NaN or infinite output writes nothing; None, a value
    absent by design, is written as null or an empty cell."""
    if not math.isfinite(v):
        raise NumericalError(f"output has a non-finite value ({v})")
    return v


def _pyify(obj):
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):  # one check; a value walk only to name the culprit
        if not np.isfinite(obj).all():
            return _pyify(obj.tolist())
        # a float vector stays an array, which _json_text writes by `float_reprs`
        return obj if obj.ndim == 1 and obj.dtype == np.float64 and obj.size else obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return _finite(float(obj))
    return obj


_JSON_SCALARS = {float, int, str, bool, type(None)}


def _json_text(obj, indent=""):
    """json.dumps(obj, indent=2), nested `indent` deep, the same text, a
    float vector (see _pyify) written as the list of its values. A list of
    scalars goes through the C encoder, which the indenting encoder does
    not use, and a float vector through the kernels' `float_reprs`, which
    writes each value as float.__repr__ does, as the encoder does: their
    items joined by the same separator."""
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in obj.items())
        body, brackets = sep.join(items), "{}"
    elif isinstance(obj, np.ndarray):
        body, brackets = _native.kernels().float_reprs(obj, sep), "[]"
    elif isinstance(obj, list) and obj:
        if set(map(type, obj)) <= _JSON_SCALARS:
            body = json.dumps(obj, separators=(sep, ": "))[1:-1]
        else:
            body = sep.join(_json_text(v, inner) for v in obj)
        brackets = "[]"
    else:
        return json.dumps(obj)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _write_json(path, payload):
    text = _json_text({"schema": "1", **_pyify(payload)})
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{_finite(v):.17g}"
    return str(v)


def _write_rows_csv(path, rows, comment=None):
    """Row dicts as csv, the columns in the key order of the first row."""
    lines = [",".join(_csv_cell(v) for v in row.values()) for row in rows]
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(rows[0]) + "\n")
        fh.writelines(line + "\n" for line in lines)


def _write_estimate(args, estimate, alpha=None, diagnostics=None):
    if args.format == "csv":
        rows = [{"node": i, "value": float(v)} for i, v in enumerate(estimate)]
        _write_rows_csv(args.out, rows)
    else:
        _write_json(args.out, {
            "estimate": estimate,
            "alpha": alpha,
            "diagnostics": diagnostics or {},
        })


def cmd_gen_graph(args):
    g = _resolve_graph(args)
    save_graph(g, args.out)
    return 0


def cmd_exact(args):
    g = _resolve_graph(args)
    y = _resolve_signal(args, g)
    problem = SmoothingProblem(g, y, args.q)
    x, iterations = solve_exact_cg(problem, tol=args.tol)
    diagnostics = {"method": "exact-cg", "iterations": iterations}
    if problem.multigrid:  # the vertex count of each level, finest first
        diagnostics["levels"] = problem.multigrid.sizes
    _write_estimate(args, x, alpha=None, diagnostics=diagnostics)
    return 0


def cmd_smooth(args):
    from .estimators import AlphaStrategy, run_monte_carlo

    g = _resolve_graph(args)
    y = _resolve_signal(args, g)
    problem = SmoothingProblem(g, y, args.q)
    strategy = AlphaStrategy.parse(args.alpha)
    result = run_monte_carlo(problem, args.n_samples, strategy, seed=args.seed)
    _write_estimate(args, result.estimate, alpha=result.alpha,
                    diagnostics=result.diagnostics)
    return 0


def cmd_sweep_alpha(args):
    from .experiments import sweep_alpha

    g = _resolve_graph(args)
    y = _resolve_signal(args, g)
    out = sweep_alpha(g, y, args.q, _parse_grid(args.alpha_grid),
                      args.n_samples, args.realizations, seed=args.seed)
    if args.format == "json":
        _write_json(args.out, out)
    else:
        # one row per grid step: the sweep's lists, each column named in
        # the singular ("alphas" -> "alpha"), then its scalars repeated
        steps = {k.removesuffix("s"): v for k, v in out.items() if isinstance(v, list)}
        scalars = {k: v for k, v in out.items() if not isinstance(v, list)}
        _write_rows_csv(args.out, [{**dict(zip(steps, values)), **scalars}
                                   for values in zip(*steps.values())])
    return 0


def cmd_denoise(args):
    from .experiments import denoise_table

    g = _resolve_graph(args)
    clean = _resolve_signal(args, g)
    rows = denoise_table(g, clean, args.noise_std, _parse_grid(args.q_grid),
                         args.n_samples, seed=args.seed)
    if args.format == "json":
        _write_json(args.out, {"psnr_convention": PSNR_CONVENTION, "rows": rows})
    else:
        _write_rows_csv(args.out, rows, comment=PSNR_CONVENTION)
    return 0


def cmd_ssl(args):
    from .ssl import SSLProblem, accuracy_experiment, load_labels

    g = _resolve_graph(args)
    labels = load_labels(args.labels, g.n)
    problem = SSLProblem(graph=g, labels=labels, mu=args.mu, sigma=args.sigma)
    try:
        counts = [int(v) for v in args.labels_per_class.split(",") if v]
    except ValueError:
        raise DataError(f"cannot parse --labels-per-class {args.labels_per_class!r}") from None
    rows = accuracy_experiment(problem, counts, args.repeats, n_samples=args.n_samples,
                               seed=args.seed)
    if args.format == "json":
        _write_json(args.out, {"rows": rows})
    else:
        _write_rows_csv(args.out, rows)
    return 0


def _add_graph_source(p, gen_only=False):
    if gen_only:
        p.add_argument("--gen", required=True,
                       help="generator spec, e.g. regular:n=1000,d=20 | "
                            "ba:n=1000,k=10 | grid:rows=4,cols=5 | knn:k=5")
    else:
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--graph", help="edge-list file")
        grp.add_argument("--gen", help="generator spec, e.g. regular:n=1000,d=20")
    p.add_argument("--coords", help="x,y coordinate file for the knn generator")


def _seed_value(text):
    try:
        return _seed(int(text))
    except ValueError:  # int()'s, or the rule's DataError
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")


def _add_out(p):
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--seed", type=_seed_value, default=0)


def _add_common_out(p):
    _add_out(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rsfsmooth",
        description="Graph signal smoothing via random spanning forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a graph and write its edge list")
    _add_graph_source(p, gen_only=True)
    _add_out(p)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("exact", help="exact smoothing x_hat = K y")
    _add_graph_source(p)
    p.add_argument("--signal", required=True,
                   help="signal file, or gaussian | smooth | constant[:value=V]")
    p.add_argument("--q", type=float, required=True, help="regularization weight")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common_out(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("smooth", help="forest Monte Carlo smoothing")
    _add_graph_source(p)
    p.add_argument("--signal", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n-samples", type=int, default=10)
    p.add_argument("--alpha", default="safe",
                   help="step size: safe | empirical | oracle | a float (0 disables)")
    _add_common_out(p)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("sweep-alpha", help="empirical MSE across a step-size grid")
    _add_graph_source(p)
    p.add_argument("--signal", default="gaussian")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--alpha-grid", required=True,
                   help="lin:a,b,n | log:a,b,n | comma-separated values")
    p.add_argument("--n-samples", type=int, default=10)
    p.add_argument("--realizations", type=int, default=200)
    _add_common_out(p)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("denoise", help="PSNR of each estimator across a q grid")
    _add_graph_source(p)
    p.add_argument("--signal", required=True, help="clean signal (file or synthetic)")
    p.add_argument("--noise-std", type=float, required=True)
    p.add_argument("--q-grid", default="log:0.01,10,16")
    p.add_argument("--n-samples", type=int, default=2)
    _add_common_out(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("ssl", help="semi-supervised classification accuracy table")
    _add_graph_source(p)
    p.add_argument("--labels", required=True, help="node,class_id CSV")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--n-samples", type=int, default=50)
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--labels-per-class", default="1",
                   help="comma-separated list of labeled-vertices-per-class counts")
    _add_common_out(p)
    p.set_defaults(func=cmd_ssl)

    return parser


def run(argv=None):
    """Parse arguments and execute; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        # an overflow or a division by zero either reaches an output, which
        # the writers then refuse with one line, or nothing written; numpy's
        # warnings about it would only crowd stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:  # an input too large to hold, refused like a size limit
        print(f"error: {err or 'out of memory'}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
