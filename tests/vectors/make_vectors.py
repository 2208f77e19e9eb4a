"""Write the frozen vectors in this directory from the builders in
``tests/test_vectors.py``.

    PYTHONPATH=src python tests/vectors/make_vectors.py [--v1]

Run it only for an intended format change, and review the diff of the files
it writes: ``resolve_reply.json`` is the exact body of one ``/v1/resolve``
reply, with no trailing newline, and ``payloads.json`` holds the canonical
text and signature of each signed payload.

``--v1`` writes ``v1.log`` and ``v1.snapshot`` instead. They are frozen: run
it only to create them, never to follow a format change, which adds files
for its own version beside them.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from test_vectors import (  # noqa: E402
    PAYLOADS,
    RESOLVE_REPLY,
    V1_LOG,
    V1_SNAPSHOT,
    build_payloads,
    build_resolve_reply,
    build_v1_files,
)

if __name__ == "__main__":
    if sys.argv[1:] == ["--v1"]:
        for frozen in (V1_LOG, V1_SNAPSHOT):
            frozen.unlink(missing_ok=True)
        build_v1_files(V1_LOG.parent)
        print(f"wrote {V1_LOG} and {V1_SNAPSHOT}")
    else:
        RESOLVE_REPLY.write_bytes(build_resolve_reply())
        PAYLOADS.write_text(json.dumps(build_payloads(), indent=2, sort_keys=True) + "\n",
                            encoding="ascii")
        print(f"wrote {RESOLVE_REPLY} and {PAYLOADS}")
