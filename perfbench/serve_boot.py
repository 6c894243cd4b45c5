"""Start the matching daemon with layer timing installed.

    PYTHONPATH=src python3 perfbench/serve_boot.py LAYERS.json serve --port 0 --store DIR

Wraps the daemon's public entry points (``probes.install_serve``), runs
``grm-match`` with the remaining arguments, and once it returns (the
daemon drained on SIGTERM) writes the layer snapshot to ``LAYERS.json``.
"""

from __future__ import annotations

import json
import sys

from layers import Layers
from probes import install_serve


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    layers = Layers()
    install_serve(layers)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    with open(out, "w") as fh:
        json.dump(layers.snapshot(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
