#!/usr/bin/env python3
"""Fails when library code that no shipped binary reaches comes back.

Builds every shipped binary at -O0 with -ffunction-sections and links it
with -Wl,--gc-sections, so each binary keeps exactly the functions it can
reach.  Then lists the cbe:: functions that the src/ libraries define
(nm types T and W, mangled _ZN3cbe... or _ZNK3cbe...) and that no binary
kept.  That unreached set must equal the committed allowlist
(tools/reach_allowlist.txt, one symbol and one reason per line):

  - a new unreached symbol fails: delete it, give it a caller in a binary,
    or allowlist it with the reason a test needs it;
  - a stale allowlist entry fails: one a binary reaches again, or one no
    library defines any more.

The shipped binaries are read from the build tree through the CMake file
API: every executable target whose source directory is outside tests/.
The build is configured from bench/e2e, whose CMakeLists adds the whole
repository, so cbe_e2e and cbe_e2e_compare are shipped binaries too, and a
new example, bench or tool is covered without editing this script.

Inline functions defined in headers are not covered.  A header inline is
emitted only into the objects that call it, so one that no library source
calls leaves no symbol in any library, and this check cannot see it.

Usage: python3 tools/check_reach.py [--build-dir DIR]
"""

import argparse
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allowlist.txt")
CBE_FUNCTION = re.compile(r"_ZNK?3cbe")


def configure_and_build(build_dir):
    query = os.path.join(build_dir, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "bench", "e2e"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
        check=True, stdout=subprocess.DEVNULL)
    libraries, binaries = targets(build_dir)
    subprocess.run(
        ["cmake", "--build", build_dir, "--parallel", str(os.cpu_count()),
         "--target", *sorted(binaries)],
        check=True, stdout=subprocess.DEVNULL)
    return libraries, binaries


def targets(build_dir):
    """(library archives under src/, shipped executables) by target name."""
    reply = os.path.join(build_dir, ".cmake", "api", "v1", "reply")
    index = max(glob.glob(os.path.join(reply, "index-*.json")))
    with open(index) as f:
        codemodel = next(o for o in json.load(f)["objects"]
                         if o["kind"] == "codemodel")
    with open(os.path.join(reply, codemodel["jsonFile"])) as f:
        model = json.load(f)
    top = model["paths"]["source"]
    libraries, binaries = {}, {}
    for ref in model["configurations"][0]["targets"]:
        with open(os.path.join(reply, ref["jsonFile"])) as f:
            t = json.load(f)
        source = os.path.relpath(
            os.path.normpath(os.path.join(top, t["paths"]["source"])), ROOT)
        top_dir = source.split(os.sep)[0]
        if t["type"] == "STATIC_LIBRARY" and top_dir == "src":
            kind = libraries
        elif t["type"] == "EXECUTABLE" and top_dir != "tests":
            kind = binaries
        else:
            continue
        kind[t["name"]] = os.path.join(build_dir, t["artifacts"][0]["path"])
    return libraries, binaries


def defined_functions(path, types):
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if (len(fields) == 3 and fields[1] in types
                and CBE_FUNCTION.match(fields[2])):
            names.add(fields[2])
    return names


def read_allowlist():
    entries, errors = {}, []
    with open(ALLOWLIST) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            symbol, _, reason = line.partition(" ")
            if not reason.strip():
                errors.append(f"{ALLOWLIST}:{n}: {symbol} gives no reason")
            if symbol in entries:
                errors.append(f"{ALLOWLIST}:{n}: {symbol} listed twice")
            entries[symbol] = reason.strip()
    return entries, errors


def demangled(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout
    return [f"  {d}\n    {m}" for m, d in zip(symbols, out.splitlines())]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-reach"))
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    libraries, binaries = configure_and_build(build_dir)
    defined = set()
    for archive in libraries.values():
        defined |= defined_functions(archive, "TW")
    reached = set()
    for exe in binaries.values():
        reached |= defined_functions(exe, "TWtw")
    unreached = defined - reached

    allowed, errors = read_allowlist()
    new = sorted(unreached - allowed.keys())
    if new:
        errors.append("unreached by every shipped binary and not allowlisted "
                      "(delete it, call it from a binary, or allowlist it "
                      "with a reason):\n" + "\n".join(demangled(new)))
    now_reached = sorted(allowed.keys() & defined & reached)
    if now_reached:
        errors.append("allowlisted but reached by a shipped binary (drop the "
                      "entry):\n" + "\n".join(demangled(now_reached)))
    gone = sorted(allowed.keys() - defined)
    if gone:
        errors.append("allowlisted but no longer defined by any src/ library "
                      "(drop the entry):\n" + "\n".join(demangled(gone)))

    print(f"{len(defined)} cbe:: functions in {len(libraries)} src/ "
          f"libraries; {len(binaries)} shipped binaries reach "
          f"{len(defined & reached)}; {len(unreached)} unreached, "
          f"{len(allowed)} allowlisted")
    for e in errors:
        print("error: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
