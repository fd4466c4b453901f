"""Every CLI output of the golden corpus hashes as recorded in tests/golden/manifest.json."""

import json

from tests.golden.corpus import entries, run
from tests.golden.regenerate import MANIFEST


def test_outputs_match_the_manifest():
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    moved = []
    for entry in manifest:
        code, digest = run(entry["command"], entry["input"])
        if (code, digest) != (entry["exit"], entry["sha256"]):
            moved.append(f"{entry['name']}: exit {code}, sha256 {digest}")
    assert not moved, "outputs moved (regenerate with python -m tests.golden.regenerate):\n" + "\n".join(moved)
    # an entry added to the corpus but not yet hashed is not checked: regenerate
    assert [e["name"] for e in manifest] == [name for name, _, _ in entries()]
