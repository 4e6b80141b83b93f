"""``repro serve`` with the layer probes installed (traced serve-mix run).

Usage: ``python perfbench/traced_serve.py serve --port 0 --workers 1
--store DIR`` — the arguments of ``python -m repro``.  The probes are
installed before the daemon forks its worker pool, so the worker's
calls into each layer record spans and counters that come back with
every ``?trace=1`` response and in ``/v1/metrics``.
"""

from __future__ import annotations

import sys

import layers
from repro.cli import main

if __name__ == "__main__":
    layers.install()
    sys.exit(main(sys.argv[1:]))
