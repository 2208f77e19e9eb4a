"""Rewrite the frozen vectors in this directory from the builders in
``tests/test_vectors.py``.

    PYTHONPATH=src python tests/vectors/make_vectors.py

Run it only for an intended format change, and review the diff of the files
it writes: ``resolve_reply.json`` is the exact body of one ``/v1/resolve``
reply, with no trailing newline.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from test_vectors import RESOLVE_REPLY, build_resolve_reply  # noqa: E402

if __name__ == "__main__":
    RESOLVE_REPLY.write_bytes(build_resolve_reply())
    print(f"wrote {RESOLVE_REPLY}")
