#!/usr/bin/env python3
"""Count the code lines under src/, one number per top-level module.

Usage: tools/src_lines.py [ROOT] [--files PATH ...]

ROOT defaults to the repository that holds this script. Every
src/**/*.cpp and src/**/*.hpp counts. A code line is any line that is
not blank and does not start (after leading whitespace) with `//`, `/*`
or `*`, so comment blocks and doc comments do not count and a line with
code before a trailing comment does. The report lists code lines per
top-level module (src/<module>/), the code total, and the physical line
total. --files counts only the named files (paths relative to ROOT) and
prints their sum, so a PR can quote the size of the files it touched.

Informational only: the exit status is 0 whatever the counts are.
"""

import argparse
import pathlib
import sys


def count(path):
    """Returns (code lines, physical lines) of one source file."""
    code = 0
    physical = 0
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            physical += 1
            text = line.strip()
            if text and not text.startswith(("//", "/*", "*")):
                code += 1
    return code, physical


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?",
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--files", nargs="+", default=None)
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root)

    if args.files:
        total_code = total_physical = 0
        for name in args.files:
            code, physical = count(root / name)
            print(f"{name:<40} {code:>7} {physical:>9}")
            total_code += code
            total_physical += physical
        print(f"{'total':<40} {total_code:>7} {total_physical:>9}")
        return 0

    src = root / "src"
    files = sorted(p for p in src.rglob("*")
                   if p.suffix in (".cpp", ".hpp") and p.is_file())
    modules = {}
    for path in files:
        relative = path.relative_to(src)
        module = relative.parts[0] if len(relative.parts) > 1 else "."
        code, physical = count(path)
        entry = modules.setdefault(module, [0, 0, 0])
        entry[0] += 1
        entry[1] += code
        entry[2] += physical

    print(f"{'module':<12} {'files':>5} {'code':>7} {'physical':>9}")
    for module, (nfiles, code, physical) in sorted(modules.items()):
        print(f"{module:<12} {nfiles:>5} {code:>7} {physical:>9}")
    print(f"{'total':<12} {sum(m[0] for m in modules.values()):>5} "
          f"{sum(m[1] for m in modules.values()):>7} "
          f"{sum(m[2] for m in modules.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
