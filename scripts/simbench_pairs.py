#!/usr/bin/env python3
"""Interleaved base/change pairs of simbench, with the gain verdict.

    python3 scripts/simbench_pairs.py --workload tree64 [--base REV]
        [--change REV] [--pairs 10] [--seconds 30] [--seed 42]
        [--trace 0] [--metric accesses_per_s] [--workdir DIR]
    python3 scripts/simbench_pairs.py --self-test

Run from anywhere inside the repository. `--base` (default `HEAD`) and
`--change` (default: the working tree, uncommitted edits included) name
the two sides. A revision is checked out in its own detached
`git worktree` under the work directory; the working tree is built where
it is. Each side's simbench is built once, with the release profile of
its own checkout, into its own target directory under the work
directory. Builds are offline and use only what the checkouts hold.

Pair i runs both binaries with the same arguments, base first in odd
pairs and change first in even ones, so a drift of the host's speed
falls on both sides alike. Every run's JSON line is printed as it
arrives, after the run's minor page faults (the `ru_minflt` delta of
`getrusage(RUSAGE_CHILDREN)` across the run). Then, for each metric:
both sides' median and quartiles
(`statistics.quantiles(..., method="inclusive")`, i.e. linear
interpolation) and the number of pairs the change won, in the direction
`BENCHMARK.json` declares for the metric (ties count for neither side).
The minor faults get two rows of the same table, without wins: per run,
and per attempted operation (a run repeats its cells for as long as
`--seconds` allows, so the faster side attempts more and faults more).
The heap's page-fault count moves `setup_s` on its own, so a `setup_s`
claim can show that the allocator did not make it.
Then comes the verdict for `--metric`, the rule of the choosing-metrics
guide, section 8: a gain needs the change ahead in at least nine tenths
of all pairs, and the medians apart, in the better direction, by more
than the base's interquartile range.

Last, one line per `end_to_end` metric of `BENCHMARK.json` judges "no
regression" by that metric's own `bound`: the change's median relative
to the base's, and `worse` when it is worse by more than the bound,
`unresolved` when the base's interquartile range, relative to its
median, is wider than the bound (unless every change run beats every
base run), and `ok` otherwise.

Without `--workdir` the work directory is a temporary one, deleted at the
end; with it, the target directories stay there so a rerun builds
incrementally. The worktrees are removed either way.

`--self-test` checks the statistics and the verdict on fixed inputs and
runs nothing else.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile


def quartiles(xs):
    """(q1, q3) by linear interpolation; a single run is its own range."""
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summary(xs):
    """`median [q1-q3]` of one side's runs."""
    q1, q3 = quartiles(xs)
    return f"{statistics.median(xs):.6g} [{q1:.6g}-{q3:.6g}]"


def per_op(minflts, runs):
    """Each run's minor faults divided by its attempted operations."""
    return [f / r["attempted"] for f, r in zip(minflts, runs)]


def wins(base, change, better):
    """Pairs in which the change beat the base; ties count for neither."""
    if better == "higher":
        return sum(c > b for b, c in zip(base, change))
    return sum(c < b for b, c in zip(base, change))


def verdict(base, change, better):
    """(gain?, explanation) for paired runs of one metric."""
    n = len(base)
    won = wins(base, change, better)
    gap = statistics.median(change) - statistics.median(base)
    if better != "higher":
        gap = -gap
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    gain = 10 * won >= 9 * n and gap > iqr
    text = (
        f"{'gain' if gain else 'not met'}: change ahead in {won}/{n} pairs "
        f"(needs {-(-9 * n // 10)}), median gap {gap:.6g} "
        f"{'>' if gap > iqr else '<='} base IQR {iqr:.6g}"
    )
    return gain, text


def regression(base, change, better, bound):
    """(word, relative median change, relative base IQR) by `bound`.

    The word is `worse` when the change's median is worse than the
    base's by more than `bound` (a fraction of the base's median),
    `unresolved` when the base's own interquartile range is wider than
    that, unless every change run beats every base run, and `ok`
    otherwise.
    """
    mb = statistics.median(base)
    rel = statistics.median(change) / mb - 1
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / abs(mb)
    if better == "higher":
        worse_by, clear = -rel, min(change) > max(base)
    else:
        worse_by, clear = rel, max(change) < min(base)
    if worse_by > bound:
        return "worse", rel, spread
    if spread > bound and not clear:
        return "unresolved", rel, spread
    return "ok", rel, spread


def git(*args, cwd):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, text=True, stdout=subprocess.PIPE
    ).stdout.strip()


def build(checkout, target_dir):
    """Build `checkout`'s simbench into `target_dir`; return the binary."""
    subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", os.path.join(checkout, "simbench", "Cargo.toml"),
            "--target-dir", target_dir,
        ],
        check=True,
    )
    return os.path.join(target_dir, "release", "simbench")


def run_once(binary, args):
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, check=True, text=True, stdout=subprocess.PIPE)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    line = out.stdout.strip().splitlines()[-1]
    return line, json.loads(line), minflt


def run_pairs(args):
    root = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {
        m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]
    }
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workdir = args.workdir or tempfile.mkdtemp(prefix="simbench-pairs-")
    os.makedirs(workdir, exist_ok=True)
    worktrees = []
    try:
        binaries = {}
        for side, rev in (("base", args.base), ("change", args.change)):
            checkout = root
            if rev is not None:
                checkout = os.path.join(workdir, f"worktree-{side}")
                git("worktree", "add", "--detach", "-f", checkout, rev, cwd=root)
                worktrees.append(checkout)
            print(f"building {side} ({rev or 'working tree'})", flush=True)
            binaries[side] = build(checkout, os.path.join(workdir, f"target-{side}"))

        runs = {"base": [], "change": []}
        minflts = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                line, result, minflt = run_once(binaries[side], args)
                runs[side].append(result)
                minflts[side].append(minflt)
                print(f"pair {i + 1} {side:<6} minflt {minflt} {line}", flush=True)
    finally:
        for checkout in worktrees:
            git("worktree", "remove", "--force", checkout, cwd=root)
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"\n{args.workload}: {args.pairs} pairs, seed {args.seed}, "
        f"{args.seconds} s, --trace {args.trace}; "
        f"base {args.base}, change {args.change or 'working tree'}"
    )
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"  {side:<6} failed {failed} of {attempted} operations; {wrong} runs incorrect")
    print(f"  {'metric':<32} {'base median [q1-q3]':<40} {'change median [q1-q3]':<40} wins")
    values = {}
    for name in runs["base"][0]["metrics"]:
        cols = []
        for side in ("base", "change"):
            xs = [r["metrics"][name]["value"] for r in runs[side]]
            values[name, side] = xs
            cols.append(summary(xs))
        won = "-"
        if name in better:
            won = wins(values[name, "base"], values[name, "change"], better[name])
            won = f"{won}/{args.pairs}"
        print(f"  {name:<32} {cols[0]:<40} {cols[1]:<40} {won}")
    fault_rows = {
        "minor_faults": minflts,
        "minor_faults_per_op": {s: per_op(minflts[s], runs[s]) for s in minflts},
    }
    for name, xs in fault_rows.items():
        print(f"  {name:<32} {summary(xs['base']):<40} {summary(xs['change']):<40} -")
    if (args.metric, "base") in values and args.metric in better:
        _, text = verdict(
            values[args.metric, "base"], values[args.metric, "change"], better[args.metric]
        )
        print(f"verdict for {args.metric}: {text}")
    else:
        print(f"verdict: {args.metric} is not among this run's metrics")
    for name, bound in bounds.items():
        if (name, "base") not in values:
            print(f"no regression, {name}: not among this run's metrics")
            continue
        word, rel, spread = regression(
            values[name, "base"], values[name, "change"], better[name], bound
        )
        print(
            f"no regression, {name}: change median {rel:+.1%} of base "
            f"(bound {bound:.0%}, base IQR {spread:.1%} of median): {word}"
        )
    if any(r["failed"] or not r["correct"] for rs in runs.values() for r in rs):
        sys.exit("some runs reported failed operations or a wrong report")


def self_test():
    # A published tree64 batch, seed 42, 30 s, 10 pairs (accesses_per_s,
    # millions): the change won every pair.
    base = [4.50, 4.13, 4.49, 4.74, 4.16, 4.39, 4.17, 4.51, 4.30, 4.22]
    change = [8.27, 8.46, 7.97, 8.06, 7.35, 8.62, 8.03, 8.11, 7.46, 6.75]
    assert abs(statistics.median(base) - 4.345) < 1e-9
    assert abs(statistics.median(change) - 8.045) < 1e-9
    q1, q3 = quartiles(base)
    assert abs(q1 - 4.1825) < 1e-9 and abs(q3 - 4.4975) < 1e-9, (q1, q3)
    assert wins(base, change, "higher") == 10
    assert wins(base, change, "lower") == 0
    gain, text = verdict(base, change, "higher")
    assert gain and text.startswith("gain: change ahead in 10/10 pairs (needs 9)"), text

    # The same batch with two pairs lost: 8/10 is short of nine tenths,
    # however wide the median gap.
    lost = change[:8] + [4.20, 4.10]
    assert wins(base, lost, "higher") == 8
    gain, text = verdict(base, lost, "higher")
    assert not gain and "8/10 pairs (needs 9)" in text, text

    # Ties count for neither side: one tie leaves 9/10 (a gain), two
    # leave 8/10 (not met).
    tied = [base[0]] + change[1:]
    assert wins(base, tied, "higher") == 9 and verdict(base, tied, "higher")[0]
    tied2 = [base[0], base[1]] + change[2:]
    assert wins(base, tied2, "higher") == 8 and not verdict(base, tied2, "higher")[0]

    # Every pair won, but by less than the base's own spread: not met.
    noisy = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    nudged = [x + 0.5 for x in noisy]
    assert wins(noisy, nudged, "higher") == 10
    gain, text = verdict(noisy, nudged, "higher")
    assert not gain and "median gap 0.5 <= base IQR 4.5" in text, text

    # Lower is better (setup_s, ns per pop): the gap is measured downwards.
    gain, _ = verdict(change, base, "lower")
    assert gain
    assert not verdict(base, change, "lower")[0]

    # Nine tenths rounds up: 4 pairs need 4 wins.
    assert verdict([1, 1, 1, 1], [2, 2, 2, 0], "higher")[0] is False
    assert verdict([1, 1, 1, 1], [2, 2, 2, 2], "higher")[0] is True
    assert quartiles([3.0]) == (3.0, 3.0)

    # The summary column (metrics and minor faults alike): median, then
    # the interpolated quartiles; one run is its own range.
    assert summary(base) == "4.345 [4.1825-4.4975]", summary(base)
    assert summary([2180, 2210, 2195, 2300]) == "2202.5 [2191.25-2232.5]"
    assert summary([3.0]) == "3 [3-3]"
    faults = per_op([1200, 1500], [{"attempted": 600}, {"attempted": 750}])
    assert faults == [2.0, 2.0], faults

    # No regression by a 25 % bound, one case per word. Worse: the
    # change's median is 30 % below a tight base.
    tight = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    slow = [x * 0.7 for x in tight]
    word, rel, _ = regression(tight, slow, "higher", 0.25)
    assert word == "worse" and abs(rel + 0.3) < 1e-9, (word, rel)
    # The same drop is a regression of a lower-is-better metric only
    # when it goes up: 30 % less setup time is fine.
    assert regression(tight, slow, "lower", 0.25)[0] == "ok"
    # Unresolved: 10 % worse, but the base's IQR is 40 % of its median.
    wide = [6.0, 8.0, 10.0, 12.0, 14.0, 6.0, 8.0, 10.0, 12.0, 14.0]
    lagging = [x * 0.9 for x in wide]
    word, _, spread = regression(wide, lagging, "higher", 0.25)
    assert word == "unresolved" and abs(spread - 0.4) < 1e-9, (word, spread)
    # ... unless every change run beats every base run.
    assert regression(wide, [x + 20 for x in wide], "higher", 0.25)[0] == "ok"
    # Ok: 10 % worse on a tight base stays within the bound.
    word, rel, _ = regression(tight, [x * 0.9 for x in tight], "higher", 0.25)
    assert word == "ok" and abs(rel + 0.1) < 1e-9, (word, rel)
    print("simbench_pairs self-test: ok")


def main():
    ap = argparse.ArgumentParser(
        description="Interleaved simbench pairs and the gain verdict."
    )
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--base", default="HEAD", help="revision (default HEAD)")
    ap.add_argument("--change", help="revision (default: the working tree)")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--metric", default="accesses_per_s")
    ap.add_argument("--workdir", help="keep builds here (default: a temp dir)")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.workload or args.pairs < 1:
        ap.error("--workload is required and --pairs must be at least 1")
    run_pairs(args)


if __name__ == "__main__":
    main()
