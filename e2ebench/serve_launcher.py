"""The traced ``service-mixed`` server: ``repro serve`` with the layer
wrappers installed before ``build_server``.

Takes the same ``--port/--workers/--state-dir`` flags as ``repro serve``
plus ``--trace-dir``.  On SIGTERM it writes what the wrappers recorded
(counts, ledger load times, spans) to ``<trace-dir>/server.json`` and
exits; worker task spans and profiles are already in ``--trace-dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys

from tracing import LayerTracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--trace-dir", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    # Loaded first, so the re-binding reaches its by-name imports too.
    from repro.serve import ServeConfig, build_server

    tracer = LayerTracer(args.trace_dir).install()
    tracer.install_dispatcher()
    server = build_server(
        ServeConfig(port=args.port, workers=args.workers, state_dir=args.state_dir)
    )

    def terminate(signum, frame):  # noqa: ARG001 - signal API
        # Forked pool workers inherit this handler; only the server writes.
        if os.getpid() == tracer.owner_pid:
            (args.trace_dir / "server.json").write_text(json.dumps(tracer.snapshot()))
        os._exit(0)

    signal.signal(signal.SIGTERM, terminate)
    server.start()
    print(f"repro serve: listening on {server.url}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
