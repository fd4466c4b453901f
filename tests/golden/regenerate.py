"""Rewrite manifest.json from the corpus: run from the repository root as

    PYTHONPATH=src python -m tests.golden.regenerate

A change that moves an entry's hash must say in CHANGES.md why the output moved.
"""

import json
import os

from tests.golden.corpus import entries, run

MANIFEST = os.path.join(os.path.dirname(__file__), "manifest.json")


def main() -> None:
    manifest = []
    for name, command, inputs in entries():
        code, digest = run(command, inputs)
        manifest.append({"name": name, "command": command, "input": inputs, "exit": code, "sha256": digest})
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(manifest)} entries written to {MANIFEST}")


if __name__ == "__main__":
    main()
