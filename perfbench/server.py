"""The ``serve-zipf`` server process: one HttpServer over the seeded graph.

Started by :mod:`perfbench.serve_zipf` as ``python3 -m perfbench.server
--seed N`` with the repository's ``src`` on ``PYTHONPATH``.  It prints one
JSON line ``{"port": ...}`` once it listens, serves until its standard
input closes (or reads ``stop``), then prints ``{"peak_rss_mb": ...}`` and
exits.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import QueryService, Session
from repro.net import HttpServer, ServerThread

from .common import peak_rss_mb
from .serve_zipf import MAX_IN_FLIGHT, build_graph


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    session = Session(build_graph(args.seed))
    service = QueryService(session, max_in_flight=MAX_IN_FLIGHT,
                           own_engine=True)
    running = ServerThread(HttpServer(service, own_service=True)).start()
    try:
        print(json.dumps({"port": running.port}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        running.stop()
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
