"""Run one fogrep command in this process and write what the benchmark
measures from inside it to a JSON file.

    python child.py STATS.json FIRST_CALL TRACE -- FOGREP-ARGS...

FIRST_CALL (``module:attribute``) names the first call into the work layer:
its time on the monotonic clock, which the parent compares with the time it
started this process, ends set-up. With TRACE 1 every layer boundary is
proxied (see spans.py) and the span aggregates and full-collection times are
written as well. The exit code is fogrep's, or TARGET_MISSING when a traced
name no longer exists in fogrep.
"""
import json
import resource
import sys
import time

import spans

TARGET_MISSING = 70


def _first_call_hook(site, stamp):
    owner, attr = spans.resolve(site)
    original = getattr(owner, attr)

    def first(*args, **kwargs):
        stamp["first_call"] = time.monotonic()
        setattr(owner, attr, original)
        return original(*args, **kwargs)

    setattr(owner, attr, first)


def main(argv):
    stats_path, first_site, trace, sep, *fogrep_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py STATS.json FIRST_CALL TRACE -- FOGREP-ARGS...")
    from fogrep import cli

    stats = {"first_call": None}
    try:
        if trace == "1":
            rec = spans.Recorder()
            spans.install_all(rec)
        # installed last, so that the proxy it puts back is the traced one
        _first_call_hook(first_site, stats)
    except spans.TargetMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return TARGET_MISSING
    if trace == "1":
        with spans.GcTimer() as gc_timer:
            rec.enter("cli.main")
            try:
                code = cli.main(fogrep_args)
            finally:
                rec.exit()
        stats.update(spans=rec.summary(), gc_s=gc_timer.seconds,
                     gc_collections=gc_timer.collections)
    else:
        code = cli.main(fogrep_args)
    stats["exit"] = code
    stats["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
