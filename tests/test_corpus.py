"""Library outputs on the seeded corpus match their pinned digests.

A mismatch names its (output kind, table kind) group; see ``tests/corpus.py``
for the cases and for how to re-pin.
"""

import json

from corpus import GOLDEN, digests


def test_outputs_match_pinned_digests():
    pinned = json.loads(GOLDEN.read_text())
    got = digests()
    changed = [
        f"{out}/{kind}" for out, row in pinned.items() for kind, digest in row.items()
        if got.get(out, {}).get(kind) != digest
    ]
    assert not changed, f"corpus groups changed: {changed}"
    assert got == pinned
