#!/usr/bin/env python3
"""Print, by crate, every workspace library item `benchmark/src` imports or
calls by path: each `use via_*::..` leaf, each inline `via_*::..` path, and
each `Leaf::item` path reached through an imported leaf (a module's
functions, a type's associated functions and constants). Method calls
(`x.method()`) are not listed: their receiver's type is.

The benchmark is built from the crates in its checkout, so every item
listed here must keep its name and signature until a change to
`benchmark/` itself lets it go. Run from anywhere:
    tools/bench_surface.py [REPO_ROOT]
"""

import pathlib
import re
import sys

root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)
USE = re.compile(r"\buse\s+(via_[a-z]+::[^;]*);", re.S)
INLINE = re.compile(r"\b(via_[a-z]+(?:::[A-Za-z_][A-Za-z0-9_]*)+)")


def expand(tree):
    """`a::{b, c::{d, e as f}}` → [('a::b', 'b'), ('a::c::d', 'd'), ('a::c::e', 'f')]:
    each imported path with the name it goes by in the file."""
    tree = re.sub(r"\s*(::|\{|\}|,)\s*", r"\1", " ".join(tree.split()))
    brace = tree.find("{")
    if brace < 0:
        path, _, alias = tree.partition(" as ")
        return [(path, alias or path.rsplit("::", 1)[-1])]
    prefix, body = tree[:brace], tree[brace + 1 : tree.rindex("}")]
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        depth += ch == "{"
        depth -= ch == "}"
        if ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return [p for part in parts if part for p in expand(prefix + part)]


items = set()
for src in sorted((root / "benchmark" / "src").glob("*.rs")):
    lines = src.read_text().splitlines()
    text = "\n".join(l for l in lines if not l.lstrip().startswith("//"))
    in_scope = {}
    for m in USE.finditer(text):
        for path, name in expand(m.group(1)):
            items.add(path)
            in_scope[name] = path
    for m in INLINE.finditer(USE.sub("", text)):
        items.add(m.group(1))
    for name, path in in_scope.items():
        for m in re.finditer(rf"(?<![\w:]){name}::([A-Za-z_][A-Za-z0-9_]*)", text):
            items.add(f"{path}::{m.group(1)}")

by_crate = {}
for item in items:
    by_crate.setdefault(item.split("::", 1)[0], []).append(item.split("::", 1)[1])
for crate in sorted(by_crate):
    print(f"{crate}: " + ", ".join(sorted(by_crate[crate])))
