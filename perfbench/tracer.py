"""Traced rsfsmooth CLI process.

    python3 tracer.py SPANS_JSON ARG...

runs `rsfsmooth ARG...` after wrapping every public function of the
package's layer modules, plus the methods and private writers listed below,
in a span. A span is [name, start, end, parent index, counters]. Spans are
kept in memory and written to SPANS_JSON when the command returns; the
benchmark derives the per-layer numbers from them (spans.py).
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "graphs", "signals", "forests", "estimators", "linalg",
          "experiments", "ssl")
PRIVATE = {"cli": ("_write_json", "_write_rows_csv")}
METHODS = (("graphs", "Graph", "walk_tables"),
           ("linalg", "LaplacianOperator", "apply"),
           ("estimators", "MonteCarloAccumulator", "add"))


def laplacian_bytes(n, m):
    """Bytes one edge-wise Laplacian apply touches, computed from array
    sizes (cache misses ignored). Over the 2m stored arcs it makes two
    gathers (index, source, result), a subtraction and a weight product
    (two reads, one write each), and a bincount (index, weights) writing n
    values: 14 arc-length arrays plus one of length n, at 8 bytes each."""
    return 8 * (14 * 2 * m + n)


def _rng_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["rng"]


def _tag_stream(args, kwargs, rng):
    rng.perfbench_key = [int(a) for a in args]


POST = {
    "forests.forest_rng": _tag_stream,
    "forests.sample_forest": lambda a, k, forest: {
        "steps": forest.rng_draws,
        "key": getattr(_rng_arg(a, k), "perfbench_key", None)},
    "linalg.solve_exact_cg": lambda a, k, res: {"iters": int(res[1])},
    "linalg.LaplacianOperator.apply": lambda a, k, res: {
        "bytes": laplacian_bytes(a[0].graph.n, a[0].graph.m)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack, clock, post = self.spans, self.stack, time.perf_counter, POST.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                span[4] = post(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layer functions and rebind every module-level name that
        refers to one, which covers the names bound by `from ... import`."""
        mods = {layer: importlib.import_module(f"rsfsmooth.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name == "rsfsmooth" or name.startswith("rsfsmooth."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import rsfsmooth.cli as cli
    tracer.spans.append(["cli.import", t0, time.perf_counter(), -1, None])
    tracer.install()
    try:
        return cli.run(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
