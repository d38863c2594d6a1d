#!/usr/bin/env python3
"""List the functions under src/tubes/ that no command-line path enters.

    python3 scripts/unreached.py

The sweep imports tubes and then runs in-process through tubes.cli.main,
all under sys.setprofile, so that functions run only at import (the codec
builders of tubes.interchange among them) count as entered. It runs
every invocation in the verdict table of perfbench/expected.py with
--json, an orbit report with --probes and --random-probes and symmetry
with --verbose as a text report, all of them once on the in-code catalog
and once on the committed fixture tree through TUBES_FIXTURES (a command
decodes only the fixtures it reads), and then catalog.export_tree. The
script then prints each function or method defined under src/tubes/
(dunder methods included; lambdas and comprehensions left out) that the
sweep never entered, as module.qualname, and their count. Such a function
is reached only from tests or from nothing. KEPT names the few that stay
anyway, each with its reason; the script also prints each KEPT entry that
names no function under src/tubes/ or that the sweep enters, so that the
list stays exact. Last it prints each catalogued fixture id that no
invocation reads, on either catalog, and their count: a claim that no
command-line sweep checks. The exit code is 1 when the script lists any
function or KEPT entry and 0 when it lists none; unread fixture ids do
not change it.

Standard library only. The interpreter runs with PYTHONHASHSEED=0, as in
the benchmark, so that set iteration order is the same in every run.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "tubes"
EXTRA = (
    ("--json", "--seed", "1", "orbits", "--surface", "surface.table.6",
     "--probes", "1,0,0,1", "2,1/2,1,-1", "--random-probes", "2"),
    ("symmetry", "--surface", "surface.table.3", "--verbose"),
)
# Functions that no command enters but that stay, each with its reason.
KEPT = {
    "catalog.FixtureError.__init__":
        "raised only for a broken fixture tree; test_cli.py and test_catalog.py reach it",
    "catalog.Registry.__len__": "an abstract method of collections.abc.Mapping",
    "catalog.FixtureTree.__iter__": "an abstract method of collections.abc.Mapping",
    "catalog.FixtureTree.__len__": "an abstract method of collections.abc.Mapping",
    "record.Record.__eq__": "tests compare records by value, among them "
                            "test_scan_equals_the_frozen_multipoly_loop",
    "record.Record.__setattr__": "the immutability guard of every record",
    "poly.MultiPoly.__repr__": "what pytest prints when an assertion fails",
    "poly.RationalFunction.__str__": "also its __repr__: what pytest prints when an "
                                     "assertion fails",
    "record.Record.__repr__": "what pytest prints when an assertion fails",
    "scalars.GaussianRational.__repr__": "what pytest prints when an assertion fails",
}


def _defined():
    """module.qualname of every function defined under src/tubes/, keyed
    by (file name, first line, name) as its code object reports them."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            name = code.co_name
            is_function = code.co_flags & inspect.CO_NEWLOCALS
            qualname = prefix + name
            inner = qualname + (".<locals>." if is_function else ".")
            stack.extend((c, "" if name == "<module>" else inner)
                         for c in code.co_consts if inspect.iscode(c))
            if not is_function or name.startswith("<"):
                continue
            out[(path.name, code.co_firstlineno, name)] = f"{path.stem}.{qualname}"
    return out


def unlisted(defined, seen, kept=KEPT):
    """The lines to print, given defined as _defined() returns it and the
    keys of the functions the sweep entered: each unentered function that
    kept leaves out, then each kept name that is not defined or that the
    sweep entered."""
    entered = {name for key, name in defined.items() if key in seen}
    return (sorted(name for key, name in defined.items() if key not in seen and name not in kept)
            + [f"{name}: kept, but no such function"
               for name in sorted(kept.keys() - set(defined.values()))]
            + [f"{name}: kept, but the sweep enters it" for name in sorted(kept.keys() & entered)])


def sweep(invocations, tree, export_dir):
    """Import tubes, run every invocation on the in-code catalog and on the
    fixture tree, then the export; returns the catalog module, the code
    objects entered and the fixture ids the invocations looked up."""
    entered, read, lookups = set(), set(), set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
            if frame.f_code in lookups:
                read.add(frame.f_locals["fid"])

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))

    sys.setprofile(profile)
    try:
        import tubes.cli as cli
        from tubes import catalog
        if Path(cli.__file__).resolve().parent != PACKAGE:
            raise SystemExit(f"imported tubes from {cli.__file__}, not from {PACKAGE}")
        lookups.update((catalog.Registry.__getitem__.__code__,
                        catalog.FixtureTree.__getitem__.__code__))
        for argv in invocations:
            run(argv)
        os.environ["TUBES_FIXTURES"] = tree
        try:
            for argv in invocations:
                run(argv)
        finally:
            del os.environ["TUBES_FIXTURES"]
        invoked = set(read)  # the export below reads every id
        catalog.export_tree(export_dir)
    finally:
        sys.setprofile(None)
    return catalog, entered, invoked


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, str(REPO / "perfbench"))
    sys.path.insert(0, str(REPO / "src"))
    from expected import EXPECTED
    if "tubes" in sys.modules:
        raise SystemExit("tubes was imported before the sweep")

    invocations = [("--json",) + tuple(key.split()) for key in EXPECTED] + list(EXTRA)
    os.environ.pop("TUBES_FIXTURES", None)
    with tempfile.TemporaryDirectory() as tmp:
        catalog, entered, read = sweep(invocations, str(REPO / "fixtures"), tmp)
    seen = {(Path(c.co_filename).name, c.co_firstlineno, c.co_name) for c in entered
            if Path(c.co_filename).resolve().parent == PACKAGE}
    listed = unlisted(_defined(), seen)
    unread = [fid for fid in catalog.list_ids() if fid not in read]
    print("\n".join(listed + [f"{len(listed)} functions under src/tubes/ not entered "
                              f"by {2 * len(invocations) + 1} sweep steps, or stale in KEPT "
                              f"({len(KEPT)} kept)"]
                     + unread + [f"{len(unread)} fixture ids not read by "
                                 f"{2 * len(invocations)} invocations"]))
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main())
