"""Compare two immlab JSON documents once every "seconds" field is dropped.

usage: python3 .github/same-run.py FIRST.json SECOND.json MESSAGE

Exits 0 when the documents match, else prints MESSAGE and exits 1.
"""

import json
import sys


def strip(doc):
    if isinstance(doc, dict):
        return {k: strip(v) for k, v in doc.items() if k != "seconds"}
    return [strip(v) for v in doc] if isinstance(doc, list) else doc


first, second = (json.dumps(strip(json.load(open(path)))) for path in sys.argv[1:3])
sys.exit(0 if first == second else sys.argv[3])
