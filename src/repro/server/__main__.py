"""``python -m repro.server`` — run the verification daemon.

Prints one ``listening on <host>:<port> (workers=N)`` line to stdout
once the socket is bound (CI and scripts block on it as the readiness
barrier), then serves until ``POST /shutdown`` or SIGINT/SIGTERM.
``--trace FILE`` exports the stitched daemon + worker span timeline as
Chrome trace-event JSON on shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from ..obs import Tracer, write_chrome_trace
from .cache import CacheError, ResultCache
from .daemon import VerifyDaemon


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Batch equivalence-verification daemon")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8347,
                        help="listen port (0 picks an ephemeral one)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes, a positive integer "
                             "(default: CPU count)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="shared on-disk result cache directory")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace of all jobs on "
                             "shutdown")
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        print("error: --workers expects a positive integer",
              file=sys.stderr)
        return 1
    if args.cache:
        try:
            ResultCache(args.cache)
        except CacheError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    tracer = Tracer() if args.trace else None
    daemon = VerifyDaemon(host=args.host, port=args.port,
                          workers=args.workers, cache_dir=args.cache,
                          tracer=tracer)

    async def serve() -> None:
        await daemon.start()
        print(f"listening on {daemon.host}:{daemon.port} "
              f"(workers={daemon.workers})", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, daemon.shutdown)
        await daemon.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    if tracer is not None:
        write_chrome_trace(tracer, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
