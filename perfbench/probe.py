"""Set-up probe: import the faceq CLI, parse a job's input documents, exit.

Usage: python probe.py QUIVER_JSON [RELATIONS_JSON]

This is the fixed cost every report pays before any algebra starts.
"""

import json
import sys

import faceq.cli  # noqa: F401  (the import itself is part of the measured cost)
from faceq import pathalg, quiver


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        q = quiver.parse_quiver(json.load(fh))
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as fh:
            pathalg.parse_relations(json.load(fh), q)


if __name__ == "__main__":
    main(sys.argv[1:])
