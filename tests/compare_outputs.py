"""Compare what two source trees print for the pinned requests.

    python tests/compare_outputs.py OLD_TREE NEW_TREE

Runs every request of ``tests/benchmark_requests.json``, and the argv of
``test_series_output_is_unchanged`` and ``test_verify_output_is_unchanged``
in ``tests/test_cli.py``, through ``cli.main`` in one process per tree, with
that tree's ``src`` first on the path.  Each tree gets its own empty
``MAASSJACOBI_CACHE_DIR``: the ``repeat`` requests carry no ``--no-cache``,
so a shared directory would replay the first tree's bytes.  The requests
are this file's tree's; a tree is any checkout with a ``src/maassjacobi``.

Printed: each request whose exit code or masked text differs, each whose
bytes moved (old -> new sha256), the largest relative move among numbers
above 1e-30 in modulus, and the numbers that became 0 or stopped being 0.
A masked text is the output with every number replaced by one mark, so two
outputs that differ in their numbers only have the same masked text.  The
exit status is 1 when some exit code or masked text differs, else 0.

This is the check of a re-pin whose only cause is rounding: it is not a
test, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
SMALL = Fraction(1, 10 ** 30)


def _digest_argv(name: str) -> list:
    """The argv of the digest list ``name`` in tests/test_cli.py, read as a
    literal, so that nothing of either tree is imported here."""
    with open(os.path.join(HERE, "test_cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return [list(argv) for argv, _ in ast.literal_eval(node.value)]
    raise LookupError(f"{name} is not in tests/test_cli.py")


def requests() -> list:
    """(id, argv) of every request that is compared."""
    with open(os.path.join(HERE, "benchmark_requests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    out = [(f"{req['workload']}-{i}", req["argv"]) for i, req in enumerate(pinned)]
    out += [("test_cli series: " + " ".join(argv), argv)
            for argv in _digest_argv("SERIES_DIGESTS")]
    out += [("test_cli verify: " + " ".join(argv), ["verify"] + argv)
            for argv in _digest_argv("VERIFY_DIGESTS")]
    return out


def _run_here(src: str, argvs: list) -> list:
    """[exit code, stdout] of each argv, run in this process from ``src``."""
    sys.path.insert(0, src)
    import maassjacobi
    from maassjacobi.cli import main

    if not os.path.abspath(maassjacobi.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"maassjacobi was imported from {maassjacobi.__file__}, not {src}")

    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        out.append([code, buf.getvalue()])
    return out


def run_tree(tree: str, argvs: list) -> list:
    """[exit code, stdout] of each argv on ``tree``, in a fresh process with
    an empty cache directory of its own."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "argv.json"), "w", encoding="utf-8") as fh:
            json.dump(argvs, fh)
        env = dict(os.environ, MAASSJACOBI_CACHE_DIR=os.path.join(tmp, "cache"))
        env.pop("PYTHONPATH", None)
        subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                        os.path.join(os.path.abspath(tree), "src"), tmp],
                       env=env, check=True)
        with open(os.path.join(tmp, "out.json"), encoding="utf-8") as fh:
            return json.load(fh)


def masked(text: str) -> str:
    return NUMBER.sub("#", text)


def numbers(text: str) -> list:
    return [Fraction(x) for x in NUMBER.findall(text)]


def _first(pair):
    return pair[0]


def compare(ids, old, new) -> int:
    """Print the comparison; 1 if an exit code or a masked text differs."""
    bad, moved, counted, above, tiny = [], [], 0, 0, 0
    worst, worst_tiny = (Fraction(0), None), (Fraction(0), None)
    to_zero, from_zero = [], []
    for rid, (code_a, text_a), (code_b, text_b) in zip(ids, old, new):
        if code_a != code_b or masked(text_a) != masked(text_b):
            bad.append(f"  {rid}: exit {code_a} -> {code_b}, masked text "
                       f"{'same' if masked(text_a) == masked(text_b) else 'differs'}")
            continue
        if text_a != text_b:
            moved.append(f"  {rid}: {hashlib.sha256(text_a.encode()).hexdigest()} -> "
                         f"{hashlib.sha256(text_b.encode()).hexdigest()}")
        for a, b in zip(numbers(text_a), numbers(text_b)):
            counted += 1
            if a != 0 and b == 0:
                to_zero.append((abs(a), rid, a))
            elif a == 0 and b != 0:
                from_zero.append((abs(b), rid, b))
            elif a != 0:
                rel = abs(a - b) / max(abs(a), abs(b))
                if max(abs(a), abs(b)) > SMALL:
                    above += 1
                    worst = max(worst, (rel, rid), key=_first)
                else:
                    tiny += 1
                    worst_tiny = max(worst_tiny, (rel, rid), key=_first)
    print(f"requests: {len(ids)}; exit code or masked text differs: {len(bad)}")
    print("\n".join(bad) if bad else "  (none)")
    print(f"outputs whose bytes moved: {len(moved)} (old -> new sha256)")
    if moved:
        print("\n".join(moved))
    for what, count, (rel, rid) in (("above 1e-30", above, worst),
                                     ("nonzero at or below 1e-30", tiny, worst_tiny)):
        print(f"numbers {what} on both sides: {count}; largest relative move: "
              f"{float(rel):.3g}" + (f" ({rid})" if rid else ""))
    print(f"numbers compared: {counted}; numbers that became 0: {len(to_zero)}, "
          f"largest old modulus {float(max(to_zero)[0]) if to_zero else 0:.3g}")
    per_request = {}
    for _, rid, _ in to_zero:
        per_request[rid] = per_request.get(rid, 0) + 1
    for rid, n in per_request.items():
        print(f"  {rid}: {n}")
    print(f"numbers that stopped being 0: {len(from_zero)}")
    for size, rid, b in sorted(from_zero, reverse=True)[:20]:
        print(f"  {rid}: 0 -> {float(b):.3g}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the source tree compared from")
    parser.add_argument("new", help="the source tree compared to")
    args = parser.parse_args(argv)
    todo = requests()
    argvs = [argv for _, argv in todo]
    old, new = run_tree(args.old, argvs), run_tree(args.new, argvs)
    return compare([rid for rid, _ in todo], old, new)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        src, tmp = sys.argv[2:4]
        with open(os.path.join(tmp, "argv.json"), encoding="utf-8") as fh:
            result = _run_here(src, json.load(fh))
        with open(os.path.join(tmp, "out.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        sys.exit(0)
    sys.exit(main())
