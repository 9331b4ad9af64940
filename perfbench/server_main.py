"""Query server process of the ``serve`` workload.

Usage: ``python3 -m perfbench.server_main <saved database dir> <chunk depth>``.
Loads the database with ``MMDatabase.load``, serves it on an ephemeral
port, prints ``port <n>`` once listening, and shuts down cleanly (exit 0)
when its standard input closes.
"""

from __future__ import annotations

import sys

#: generous enough that the benchmark's two connections are never refused
QUOTA_RATE = 1e9
#: engine steps are CPU-bound Python: further pool threads only contend
#: for the interpreter lock, and with the default four the request rate
#: of two connections swung between 179 and 266 per second from run to run
WORKERS = 1


def main(argv: list[str]) -> int:
    from repro.core.database import MMDatabase
    from repro.serve import ServerConfig, ServerThread, TenantConfig

    directory, chunk_depth = argv[1], int(argv[2])
    db = MMDatabase.load(directory)
    quota = TenantConfig("default", rate=QUOTA_RATE, burst=QUOTA_RATE, max_concurrent=8)
    server = ServerThread(db, ServerConfig(port=0, chunk_depth=chunk_depth, workers=WORKERS,
                                           default_quota=quota))
    handle = server.start()
    try:
        print(f"port {handle.port}", flush=True)
        sys.stdin.read()
    finally:
        server.stop()
        db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
