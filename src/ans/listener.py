"""One TCP accept loop, shared by the registry server and the handshake peer.

Each accepted connection is served on its own daemon thread by a
``serve(conn)`` callable. An ``OSError`` from the connection (a reset, a
broken pipe, a timeout) ends it quietly; either way the socket is then shut
for writing and closed. There is no idle deadline and no connection cap yet:
this is the one place both would go.

``close()`` wakes a blocked ``accept`` by shutting the listening socket down
and then joins the accept thread. Linux, the deployment target, wakes it at
once; on a platform that does not, ``close()`` waits for the next connection
to arrive.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable


class Listener:
    """A listening socket on ``address``; a port in TIME_WAIT binds again at once."""

    def __init__(self, address: tuple[str, int], serve: Callable[[socket.socket], None]):
        self._sock = socket.create_server(address)
        self._serve = serve
        self._closed = False
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> None:
        """Accept on a daemon thread, which ``close()`` joins."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Accept connections until ``close()``."""
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                if self._closed:
                    return
                continue  # this one connection failed before it was accepted
            threading.Thread(target=self._serve_one, args=(conn,), daemon=True).start()

    def _serve_one(self, conn: socket.socket) -> None:
        try:
            self._serve(conn)
        except OSError:
            pass
        finally:
            try:
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            conn.close()

    def close(self) -> None:
        """Stop accepting. Connections already accepted run until their peer
        hangs up or they fail."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        if self._thread is not None:
            self._thread.join()
