#!/usr/bin/env python3
"""Compare benchmark records of two builds, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... \
        --new B1.json B2.json ...

Each argument is a record written by perfbench/run.py under
.bench_build/records/. Records are only compared when they were made
the same way: the same build type, compiler, CPU model and core count,
and the same workload, trace mode, seed list and run length. If any of
these differ the script refuses (exit 2) and names the field. The git
revision and source digest are expected to differ and are printed.

For each metric the median of each side is shown with the change. An
end-to-end metric whose new median is worse than the base median by
more than its BENCHMARK.json bound is marked REGRESSED (exit 1).
Whether the two sides' simulated outputs are byte-identical (equal
determinism digests per seed) is reported too.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MACHINE = ("build_type", "compiler", "cpu_model", "nproc")


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def shape(record):
    """What must match across records for a comparison to hold."""
    return {**{k: record["stamp"][k] for k in MACHINE},
            **{k: record[k] for k in ("workload", "trace", "seconds")}}


def mismatch(base, new):
    """The first field that makes the two sides incomparable, or None."""
    ref = shape(base[0])
    for r in base + new:
        for key, value in shape(r).items():
            if value != ref[key]:
                return "%s (%r vs %r)" % (key, ref[key], value)
    seeds = lambda rs: sorted(r["stamp"]["seed"] for r in rs)
    if seeds(base) != seeds(new):
        return "seeds (%r vs %r)" % (seeds(base), seeds(new))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    bad = mismatch(base, new)
    if bad:
        print("refusing to compare: records differ in " + bad,
              file=sys.stderr)
        return 2

    bench = json.loads(Path("BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    revs = lambda rs: sorted({r["stamp"]["git_rev"] + "/" +
                              r["stamp"]["source_digest"][:12] for r in rs})
    print("workload %s, trace %d, %d base and %d new records"
          % (base[0]["workload"], base[0]["trace"], len(base), len(new)))
    print("base rev %s\nnew rev  %s" % (", ".join(revs(base)),
                                        ", ".join(revs(new))))
    digests = lambda rs: {r["stamp"]["seed"]: r["digest"] for r in rs}
    same = digests(base) == digests(new)
    print("simulated outputs: %s" % ("identical" if same else "DIFFER"))

    regressed = False
    print("%-34s %14s %14s %9s %7s" % ("metric", "base", "new", "change",
                                       "bound"))
    for name in base[0]["result"]["metrics"]:
        m = declared[name]
        old = statistics.median(r["result"]["metrics"][name]["value"]
                                for r in base)
        cur = statistics.median(r["result"]["metrics"][name]["value"]
                                for r in new)
        change = (cur - old) / old if old else 0.0
        worse = change if m["better"] == "lower" else -change
        bound = m.get("bound")
        verdict = ""
        if bound is not None and worse > bound:
            verdict, regressed = "REGRESSED", True
        print("%-34s %14.6g %14.6g %+8.1f%% %7s %s" % (
            name, old, cur, 100 * change,
            "" if bound is None else "%.0f%%" % (100 * bound), verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
