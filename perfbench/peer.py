"""Handshake target for the benchmark: one ``PeerServer`` in its own process.

    python3 perfbench/peer.py IDENTITY_JSON ANCHORS_JSON

Prints ``peer on HOST:PORT`` once listening, then serves until terminated.
The server source is taken from ``PYTHONPATH``.
"""

import signal
import sys

from ans.cli import load_identity
from ans.client import PeerServer
from ans.server import load_anchors


def main(identity_path: str, anchors_path: str) -> None:
    identity, _ = load_identity(identity_path)
    peer = PeerServer(identity, load_anchors(anchors_path)).start()
    host, port = peer.address
    print(f"peer on {host}:{port}", flush=True)
    try:
        signal.sigwait({signal.SIGTERM, signal.SIGINT})
    finally:
        peer.stop()


if __name__ == "__main__":
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT})
    main(*sys.argv[1:])
