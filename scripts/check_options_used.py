#!/usr/bin/env python3
"""Dead-knob lint for the engine's Options struct.

Usage: check_options_used.py [--self-check] [<repo-root>]

Every field of `struct Options` (src/common/options.h) must be read
somewhere in src/ outside common/options.{h,cc}: a field that only its
declaration and ValidateOptions mention configures nothing, and a field
that benches and tests never set to a second value belongs in a named
constant instead.  This lint catches the first kind mechanically.

A field counts as read when a src/ file accesses it as a member
(`options.x`, `options_->x`, ...) outside a comment; a call of a method
that happens to share the name (`disk->page_size()`) does not count.

Exits non-zero with one "options.h: field <name> ..." line per unused
field.  --self-check runs the lint against an embedded fixture tree so a
parser or regex regression fails CI rather than silently passing
everything.
"""

import os
import re
import sys
import tempfile

OPTIONS_H = os.path.join("src", "common", "options.h")
OPTIONS_CC = os.path.join("src", "common", "options.cc")
EXTS = (".h", ".cc")

STRUCT_RE = re.compile(r"struct\s+Options\s*\{(.*?)\n\};", re.S)
# A data member declaration: type tokens, the name, an optional default
# initializer, then ';'.  Function declarations (a '(' before the name's
# terminator) do not match.
FIELD_RE = re.compile(r"^\s*[\w:<>,\s]+?\s(\w+)\s*(?:=[^;()]*|\{[^;]*\})?;")


def strip_comment(line):
    return line.split("//", 1)[0]


def option_fields(header_text):
    m = STRUCT_RE.search(header_text)
    if m is None:
        return None
    fields = []
    for line in m.group(1).splitlines():
        fm = FIELD_RE.match(strip_comment(line))
        if fm:
            fields.append(fm.group(1))
    return fields


def member_use_re(field):
    return re.compile(r"(?:\.|->)\s*%s\b(?!\s*\()" % re.escape(field))


def run(root):
    header = os.path.join(root, OPTIONS_H)
    if not os.path.isfile(header):
        return ["%s: missing" % header]
    with open(header, "r", encoding="utf-8") as f:
        fields = option_fields(f.read())
    if not fields:
        return ["%s: no fields parsed from struct Options" % header]
    skip = {os.path.normpath(os.path.join(root, p))
            for p in (OPTIONS_H, OPTIONS_CC)}
    code = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            path = os.path.normpath(os.path.join(dirpath, name))
            if not name.endswith(EXTS) or path in skip:
                continue
            with open(path, "r", encoding="utf-8") as f:
                code.extend(strip_comment(line) for line in f)
    text = "\n".join(code)
    return ["options.h: field %s is read nowhere in src/ outside "
            "common/options.{h,cc} (make it a constant or delete it)" % field
            for field in fields if not member_use_re(field).search(text)]


FIXTURE = {
    OPTIONS_H: """
struct Options {
  // --- storage ---
  size_t page_size = 4096;  // read below as a member
  std::string failpoints;   // read below through a pointer
  size_t dead_knob = 32;    // only ValidateOptions mentions it
  size_t commented = 1;     // only a comment mentions it
  size_t called = 2;        // only a same-named method call mentions it
};
Status ValidateOptions(const Options& options);
""",
    OPTIONS_CC: """
Status ValidateOptions(const Options& o) {
  if (o.dead_knob == 0) return bad("dead_knob");
  if (o.commented == 0 || o.called == 0) return bad("x");
}
""",
    os.path.join("src", "core", "engine.cc"): """
Engine::Engine(const Options& options) : pool_(options.page_size) {
  Configure(options_->failpoints);
  // options.commented is only prose here
  n = disk->called();
}
""",
}
FIXTURE_EXPECTED = {"dead_knob", "commented", "called"}


def self_check():
    with tempfile.TemporaryDirectory() as root:
        for rel, text in FIXTURE.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        flagged = {line.split()[2] for line in run(root)}
    failures = []
    for field in sorted(FIXTURE_EXPECTED - flagged):
        failures.append("lint missed unused field %r" % field)
    for field in sorted(flagged - FIXTURE_EXPECTED):
        failures.append("lint flagged used field %r" % field)
    for f in failures:
        print("SELF-CHECK FAIL %s" % f, file=sys.stderr)
    return 1 if failures else 0


def main(argv):
    if "--self-check" in argv:
        rc = self_check()
        if rc == 0:
            print("self-check OK")
        return rc
    root = argv[1] if len(argv) > 1 else "."
    violations = run(root)
    for v in violations:
        print("FAIL %s" % v, file=sys.stderr)
    if not violations:
        print("options used OK (%s)" % OPTIONS_H)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
