"""The command line that the census scripts share: ``write FILE [--quick]`` and ``compare OLD NEW``.

``fingerprint.py``, ``accuracy.py`` and ``tune_census.py`` each pass their items and their
comparison to ``main``, which parses the arguments, writes the items as indented JSON, reads
two files back, and exits 1 where the comparison lists anything.
"""

from __future__ import annotations

import argparse
import json


def main(argv, doc: str, helps: tuple[str, str, str], items, compare, unit="items", summary=lambda items: []) -> int:
    """Run a census script's command line.

    ``helps`` are the help texts of ``write``, ``--quick`` and ``compare``.  ``write`` prints the
    ``summary(items)`` lines and "wrote <n> <unit> to FILE"; ``compare`` prints the lines of
    ``compare(old, new)``, which returns them with whether they list an item.
    """
    parser = argparse.ArgumentParser(description=doc.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    write = sub.add_parser("write", help=helps[0])
    write.add_argument("file")
    write.add_argument("--quick", action="store_true", help=helps[1])
    compare_cmd = sub.add_parser("compare", help=helps[2])
    compare_cmd.add_argument("old")
    compare_cmd.add_argument("new")
    args = parser.parse_args(argv)
    if args.mode == "write":
        found = items(args.quick)
        with open(args.file, "w", encoding="utf-8") as fh:
            json.dump(found, fh, indent=1)
            fh.write("\n")
        print("\n".join([*summary(found), f"wrote {len(found)} {unit} to {args.file}"]))
        return 0
    with open(args.old, encoding="utf-8") as fh, open(args.new, encoding="utf-8") as gh:
        lines, listed = compare(json.load(fh), json.load(gh))
    print("\n".join(lines))
    return 1 if listed else 0
