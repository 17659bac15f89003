#!/usr/bin/env python3
"""Fails when library code that no shipped binary reaches comes back.

Builds every shipped binary at -O0 with -ffunction-sections and
-fkeep-inline-functions and links it with -Wl,--gc-sections, so each
binary keeps exactly the functions it can reach.  Then lists the cbe::
functions that the src/ libraries define (nm types T and W, mangled
_ZN3cbe... or _ZNK3cbe...) and that no binary kept.  That unreached set
must equal the committed allowlist (tools/reach_allowlist.txt, one symbol
and one reason per line):

  - a new unreached symbol fails: delete it, give it a caller in a binary,
    or allowlist it with the reason a test needs it;
  - a stale allowlist entry fails: one a binary reaches again, one no
    library defines any more, or a special member (those are skipped).

The shipped binaries are read from the build tree through the CMake file
API: every executable target whose source directory is outside tests/.
The build is configured from bench/e2e, whose CMakeLists adds the whole
repository, so cbe_e2e and cbe_e2e_compare are shipped binaries too, and a
new example, bench or tool is covered without editing this script.

Inline functions defined in headers are covered: -fkeep-inline-functions
emits every inline function that a library source sees, called or not, so
an unused one in a header that some src/ source includes is reported like
an out-of-line one.  (A header that no src/ source includes is not seen.)

Special members are skipped, judged by their demangled names alone:
destructors, default constructors, copy and move constructors, and copy
and move assignment.  Most are compiler-generated (implicit or = default)
and go when the code that uses them goes; a hand-written one with one of
those signatures is skipped too.

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
         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fkeep-inline-functions",
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


def parameters_at_end(name):
    """(name before its parameter list, parameters) of a demangled function."""
    name = re.sub(r"( const| volatile|&&|&)+$", "", name)
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(name[i], 0)
        if depth == 0:
            return name[:i], name[i + 1:-1]
    return name, ""


def scope_and_member(qualified):
    """Splits a qualified name at its last '::' outside brackets."""
    depth, cut = 0, -1
    for i, c in enumerate(qualified):
        if c in "(<{":
            depth += 1
        elif c in ")>}":
            depth = max(depth - 1, 0)
        elif depth == 0 and qualified.startswith("::", i):
            cut = i
    return qualified[:cut], qualified[cut + 2:]


def special_member(demangled_name):
    """Destructor, default/copy/move constructor or copy/move assignment."""
    qualified, params = parameters_at_end(demangled_name)
    cls, member = scope_and_member(qualified)
    base = re.sub(r"<.*>$", "", scope_and_member(cls)[1])
    copy_or_move = params in (cls + " const&", cls + "&&")
    if member == "~" + base:
        return params == ""
    if member == base:
        return params == "" or copy_or_move
    return member == "operator=" and copy_or_move


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


def demangle(symbols):
    symbols = sorted(symbols)
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(symbols, out.splitlines()))


def listed(symbols):
    return [f"  {d}\n    {m}" for m, d in demangle(symbols).items()]


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
    defined = {m for m, d in demangle(defined).items()
               if not special_member(d)}
    reached = set()
    for exe in binaries.values():
        reached |= defined_functions(exe, "TWtw")
    unreached = defined - reached

    allowed, errors = read_allowlist()
    new = sorted(unreached - allowed.keys())
    if new:
        errors.append("unreached by every shipped binary and not allowlisted "
                      "(delete it, call it from a binary, or allowlist it "
                      "with a reason):\n" + "\n".join(listed(new)))
    now_reached = sorted(allowed.keys() & defined & reached)
    if now_reached:
        errors.append("allowlisted but reached by a shipped binary (drop the "
                      "entry):\n" + "\n".join(listed(now_reached)))
    gone = sorted(allowed.keys() - defined)
    if gone:
        errors.append("allowlisted but not a checked function of any src/ "
                      "library, as it is gone or a skipped special member "
                      "(drop the entry):\n" + "\n".join(listed(gone)))

    print(f"{len(defined)} cbe:: functions in {len(libraries)} src/ "
          f"libraries; {len(binaries)} shipped binaries reach "
          f"{len(defined & reached)}; {len(unreached)} unreached, "
          f"{len(allowed)} allowlisted")
    for e in errors:
        print("error: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
