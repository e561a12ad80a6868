"""Command-line driver.

Two commands: `analyze` runs one program and renders its reports,
`corpus` checks a directory of programs against frozen expectations.

Exit status: 0 clean, 1 analysis reported errors (or expectations
failed), 2 unusable input (parse/static errors, bad entry, a source that
cannot be read or is not UTF-8, a report path that cannot be written, a
cap or iteration ceiling below 1, a program that nests too deeply).
"""

import argparse
import json
import os
import sys

from aliasgraph.calculus import AnalysisConfig, AnalysisError, Engine
from aliasgraph.lang import ParseError, parse_file, resolve
from aliasgraph.query import (
    AliasQuery,
    QueryError,
    alias_pairs,
    build_report,
    deutsch_report,
    emit_dot,
    emit_json,
    query_alias,
    state_at,
)


def _say(text, code, file):
    """Print text to file, coloured when file is a terminal;
    ALIASGRAPH_COLOR=1 or 0 forces colour on or off."""
    env = os.environ.get("ALIASGRAPH_COLOR")
    if env == "1" or (env != "0" and file.isatty()):
        text = "\x1b[%sm%s\x1b[0m" % (code, text)
    print(text, file=file)


_SEVERITY_COLORS = {"error": "31", "warning": "33", "note": "36"}


def _print_diagnostics(diags):
    for d in diags:
        _say(d.render(), _SEVERITY_COLORS.get(d.severity, "0"), sys.stderr)


def _load(path, entry, config):
    """Parse, resolve, analyze from the named entry under an
    AnalysisConfig. Returns (engine, exit_code)."""
    try:
        program = parse_file(path)
        static = resolve(program)
        _print_diagnostics(static)
        if any(d.severity == "error" for d in static):
            return None, 2
        engine = Engine(program, config)
        engine.analyze(entry)
    except (OSError, UnicodeDecodeError) as exc:
        _say("cannot read %s: %s" % (path, exc), "31", sys.stderr)
        return None, 2
    except ParseError as exc:
        _say(exc.diagnostic.render(), "31", sys.stderr)
        return None, 2
    except AnalysisError as exc:
        _say(str(exc), "31", sys.stderr)
        return None, 2
    return engine, 0


def run(args, config) -> int:
    """The `analyze` command, on the parsed command line."""
    engine, rc = _load(args.file, args.entry, config)
    if rc:
        return rc
    report = build_report(engine)
    # keep stdout clean for piping when a machine report claims it
    out = sys.stderr if "-" in (args.json, args.dot) else sys.stdout
    # a request that cannot be answered (a bad query, an unknown point)
    # still leaves the reports and the analysis diagnostics behind; only
    # the DOT drawing of an unknown point cannot be drawn
    answered = _print_answers(args, engine, report, out)

    written = True
    if args.json:
        written = _write(args.json, emit_json(report))
    if args.dot:
        try:
            written = _write(args.dot, emit_dot(*state_at(engine, args.at))) and written
        except QueryError:
            pass  # an unknown point has no drawing; the answers said so

    _print_diagnostics(engine.diagnostics)
    if not written:
        return 2
    return 1 if engine.has_errors() or not answered else 0


def _print_answers(args, engine, report, out):
    """Print the requested answers; False after the first request that
    cannot be answered, whose error goes to stderr."""
    try:
        if args.deutsch:
            props = deutsch_report(engine, k=3)
            for name in ("P1", "P2", "P3", "P4", "P5"):
                line = "%s: %s" % (name, "yes" if props[name] else "no")
                print(line, file=out)
                report["diagnostics"].append("deutsch %s (k=%d)" % (line, props["k"]))
            share = "no-share root component: %s" % ("yes" if props["no_share_root"] else "no")
            print(share, file=out)
            report["diagnostics"].append("deutsch " + share)

        print("entry: %s" % report["entry"], file=out)
        shown = report["final"]["pairs"]
        if args.at is not None:
            shown = alias_pairs(*state_at(engine, args.at), engine.universe)
        print("alias pairs (%s):" % ("final" if args.at is None else "at %s" % args.at), file=out)
        for p, q in shown:
            print("  %s ~ %s" % (p, q), file=out)

        for qtext in args.query:
            answers = query_alias(engine, AliasQuery(qtext, at=args.at))
            print("alias(%s) = {%s}" % (qtext, ", ".join(sorted(answers))), file=out)
    except QueryError as exc:
        _say(str(exc), "31", sys.stderr)
        return False
    return True


def _write(path, blob):
    """Write blob to path ('-' for stdout); False after saying why it
    cannot be written."""
    try:
        if path == "-":
            sys.stdout.write(blob.decode("utf-8"))
        else:
            with open(path, "wb") as fh:
                fh.write(blob)
    except OSError as exc:
        _say("cannot write %s: %s" % (path, exc), "31", sys.stderr)
        return False
    return True


def _pairs_as_sets(doc):
    """label -> set of pair tuples, with 'final' as its own label.
    Raises ValueError when ``doc`` is not shaped like a report."""
    points, final = doc.get("points", []), doc.get("final", {})
    if not isinstance(points, list) or not all(isinstance(part, dict) for part in points + [final]):
        raise ValueError("'points' must be a list of objects and 'final' an object")
    out = {}
    for label, part in [(point.get("label"), point) for point in points] + [("final", final)]:
        if not isinstance(label, str):
            raise ValueError("a point has no string 'label'")
        pairs = part.get("pairs", [])
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p) for p in pairs
        ):
            raise ValueError("the pairs of %r must be a list of pairs of strings" % label)
        out[label] = {tuple(p) for p in pairs}
    return out


def run_corpus(args, config) -> int:
    """The `corpus` command: .oo files vs adjacent .expected.json."""
    root = args.dir
    if not os.path.isdir(root):
        _say("not a directory: %s" % root, "31", sys.stderr)
        return 2
    files = sorted(f for f in os.listdir(root) if f.endswith(".oo"))
    passed = failed = skipped = 0
    for name in files:
        oo_path = os.path.join(root, name)
        want_path = os.path.join(root, name[:-3] + ".expected.json")
        if not os.path.exists(want_path):
            print("SKIP %s (no expectation file)" % name)
            skipped += 1
            continue
        try:
            with open(want_path, "r", encoding="utf-8") as fh:
                want_doc = json.load(fh)
            if not isinstance(want_doc, dict):
                raise ValueError("not a JSON object")
            want = _pairs_as_sets(want_doc)
            entry = want_doc.get("entry", args.entry)
            if not isinstance(entry, str):
                raise ValueError("'entry' must be a string")
        except (OSError, ValueError) as exc:
            _say("FAIL %s (unreadable expectation: %s)" % (name, exc), "31", sys.stdout)
            failed += 1
            continue
        engine, rc = _load(oo_path, entry, config)
        if rc:
            _say("FAIL %s (did not analyze)" % name, "31", sys.stdout)
            failed += 1
            continue
        got = _pairs_as_sets(build_report(engine))
        diffs = []
        for label in sorted(set(got) | set(want)):
            missing = want.get(label, set()) - got.get(label, set())
            extra = got.get(label, set()) - want.get(label, set())
            for p, q in sorted(missing):
                diffs.append("%s: missing %s ~ %s" % (label, p, q))
            for p, q in sorted(extra):
                diffs.append("%s: unexpected %s ~ %s" % (label, p, q))
        if diffs:
            _say("FAIL %s" % name, "31", sys.stdout)
            for d in diffs:
                print("  " + d)
            failed += 1
        else:
            _say("PASS %s" % name, "32", sys.stdout)
            passed += 1
    print("%d passed, %d failed, %d skipped" % (passed, failed, skipped))
    return 1 if failed else 0


def _build_parser():
    defaults = AnalysisConfig()
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--entry", default="main", metavar="NAME",
                        help="entry routine: Class.routine or a top-level name (default: main)")
    shared.add_argument("--cap", type=int, default=defaults.cap, metavar="N",
                        help="creation allowance per site per outermost fixpoint (default: %(default)s)")
    shared.add_argument("--max-iters", type=int, default=defaults.max_iters, metavar="N",
                        help="fixpoint iteration ceiling (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="aliasgraph",
        description="May-alias analysis for the mini object-oriented language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[shared], help="analyze one program")
    pa.add_argument("file", help="the .oo program")
    pa.add_argument("--points", action="store_true", help="record per-point snapshots")
    pa.add_argument("--at", metavar="L", help="report pairs at this program point")
    pa.add_argument("--query", action="append", default=[], metavar="PATH",
                    help="print the alias set of PATH (repeatable)")
    pa.add_argument("--deutsch", action="store_true",
                    help="check the list-copy properties P1..P5 (expects X/Y/hd/tl, points L2/L3)")
    pa.add_argument("--json", metavar="FILE", help="write the JSON report ('-' for stdout)")
    pa.add_argument("--dot", metavar="FILE", help="write a DOT drawing ('-' for stdout)")

    pc = sub.add_parser("corpus", parents=[shared],
                        help="run every .oo under DIR against its .expected.json")
    pc.add_argument("dir")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    corpus = args.command == "corpus"
    try:
        config = AnalysisConfig(cap=args.cap, max_iters=args.max_iters,
                                record_points=corpus or bool(args.points or args.at or args.deutsch))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if corpus:
        return run_corpus(args, config)
    if args.json == "-" and args.dot == "-":
        print("--json and --dot cannot both write to stdout", file=sys.stderr)
        return 2
    return run(args, config)


if __name__ == "__main__":
    sys.exit(main())
