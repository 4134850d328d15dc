"""Set-up probe: the work every call of a workload pays before it computes.

Run in a fresh interpreter as `python3 probe.py SPEC_JSON`. It imports
rsfsmooth.cli, builds the graph, signal and labels through the same public
functions the command uses, builds the walk tables for sampling workloads,
and exits. The caller times it from spawn to exit.
"""

import json
import sys

import rsfsmooth.cli  # noqa: F401  (the import is part of the set-up)
from rsfsmooth import gen_graph, load_graph, load_labels, load_signal, synthetic_signal


def main(spec):
    graph = spec["graph"]
    if "file" in graph:
        g = load_graph(graph["file"])
    else:
        g = gen_graph(graph["gen"], seed=graph["seed"], **graph["params"])
    signal = spec.get("signal")
    if signal is not None:
        if "file" in signal:
            load_signal(signal["file"], g.n)
        else:
            synthetic_signal(g, signal["kind"], seed=signal["seed"])
    if spec.get("labels"):
        load_labels(spec["labels"], g.n)
    if spec.get("walk"):
        g.walk_tables()


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
