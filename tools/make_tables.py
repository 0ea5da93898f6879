#!/usr/bin/env python3
"""Regenerate the shipped character tables from the group catalog.

Every table is rebuilt from scratch (class enumeration, structure constants,
modular eigenvector lift) and cross-checked against pair counting before it
is written, so the shipped files carry their own provenance.
"""

import json
import os
import sys

from bfl.catalog import construct
from bfl.charcompute import SHIPPED_TABLES, build_table

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "bfl", "tables")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, blueprint in SHIPPED_TABLES:
        obj = build_table(construct(blueprint), name).to_json()
        path = os.path.join(OUT_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote %s (%d classes)" % (path, len(obj["classes"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
