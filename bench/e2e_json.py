"""Commit the end-to-end benchmark's numbers: BENCH_e2e.json.

    python3 bench/e2e_json.py rows --rev parent --root DIR --out FILE
    python3 bench/e2e_json.py entry --title T FILE...
    python3 bench/e2e_json.py toy

From the repository root.  Every run is the unmodified
bench/e2e/e2e.exe of a checkout, once with --trace 0 (the end-to-end
metrics) and once with --trace 1 (the per-layer metrics), both with
--seconds 0, which measures the minimum of three passes.

`rows` runs seeds 1-3 x the four workloads on the checkout DIR and
writes one row per (workload, seed), labelled with the rev ("parent"
or "change").  `entry` appends the rows of its files to BENCH_e2e.json
as one entry, naming the host (cpu count and OCaml version), and
stores the deterministic counters of this tree's four --toy runs as
the file's "toy_reference".

`toy` re-runs the four --toy workloads and exits 1 if any counter
differs from the toy_reference.  Only counts are compared (msgs,
wire_bytes and the net.*, update.*, eval.*, query.*, sub.*, reliable.*
and wal.* counters), never wall time (wal.recovery_ms) or allocation.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

OUT = "BENCH_e2e.json"
WORKLOADS = ["update-tree", "update-mesh", "query-storm", "mixed-chaos"]
SEEDS = [1, 2, 3]
# per-layer families whose counts repeat exactly for one seed
COUNTED = ("net.", "update.", "eval.", "query.", "sub.", "reliable.", "wal.")
TIMED_UNITS = ("s", "ms", "us", "1/s")


def build(root):
    subprocess.run(["dune", "build", "--root", root, "--display", "quiet",
                    "bench/e2e/e2e.exe"], check=True)
    return os.path.join(os.path.abspath(root), "_build", "default", "bench", "e2e", "e2e.exe")


def run(exe, root, workload, seed, trace, toy):
    with tempfile.TemporaryDirectory() as spans:
        args = [exe, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--out", spans]
        if toy:
            args.append("--toy")
        done = subprocess.run(args, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{root}: {workload} seed {seed} trace {trace} failed "
                 f"({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{root}: {workload} seed {seed}: a correctness gate failed")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    return result, metrics, units


def measure(exe, root, workload, seed, toy=False):
    """Both runs of one (workload, seed): every metric, and the units."""
    e2e, metrics, units = run(exe, root, workload, seed, 0, toy)
    _, layers, layer_units = run(exe, root, workload, seed, 1, toy)
    metrics.update(layers)
    units.update(layer_units)
    metrics["attempted"] = e2e["attempted"]
    metrics["failed"] = e2e["failed"]
    return metrics, units


def deterministic(metrics, units):
    keep = {"msgs", "wire_bytes"}
    return {name: value for name, value in metrics.items()
            if name in keep
            or (name.startswith(COUNTED) and units.get(name) not in TIMED_UNITS)}


def rounded(value):
    if isinstance(value, float) and value != int(value):
        return float(f"{value:.6g}")
    return int(value) if isinstance(value, float) else value


def load():
    if os.path.exists(OUT):
        return json.load(open(OUT))
    return {
        "bench": "e2e",
        "command": "bench/e2e/e2e.exe --workload W --seed S --seconds 0 --trace 0|1",
        "note": "alloc_mb and wall times are from the host named in each entry; "
                "counters repeat exactly for one seed",
        "entries": [],
        "toy_reference": {},
    }


def save(doc):
    """One line per row and per toy workload, so a new entry diffs as
    added lines."""
    def lines(items, indent):
        pad = " " * indent
        return ",\n".join(pad + item for item in items)

    entries = [
        "{\"title\": %s, \"host\": %s, \"rows\": [\n%s\n  ]}"
        % (json.dumps(e["title"]), json.dumps(e["host"]),
           lines([json.dumps(r) for r in e["rows"]], 3))
        for e in doc["entries"]
    ]
    toy = ["%s: %s" % (json.dumps(w), json.dumps(c)) for w, c in doc["toy_reference"].items()]
    with open(OUT, "w") as f:
        f.write("{\n")
        for key in ("bench", "command", "note"):
            f.write(f" {json.dumps(key)}: {json.dumps(doc[key])},\n")
        f.write(' "entries": [\n%s\n ],\n' % lines(entries, 2))
        f.write(' "toy_reference": {\n%s\n }\n}\n' % lines(toy, 2))


def toy_counters(exe):
    ref = {}
    for workload in WORKLOADS:
        metrics, units = measure(exe, ".", workload, 1, toy=True)
        ref[workload] = {k: rounded(v) for k, v in deterministic(metrics, units).items()}
    return ref


def host():
    ocaml = subprocess.run(["ocaml", "-vnum"], capture_output=True, text=True,
                           check=True).stdout.strip()
    return f"{os.cpu_count()} cpus, OCaml {ocaml}, seconds 0 (3 measured passes)"


def cmd_toy(_opts):
    got = toy_counters(build("."))
    ref = load()["toy_reference"]
    bad = []
    for workload in WORKLOADS:
        r, g = ref.get(workload, {}), got[workload]
        for name in sorted(set(r) | set(g)):
            if r.get(name) != g.get(name):
                bad.append(f"{workload} {name}: {g.get(name)} != committed {r.get(name)}")
    if bad:
        sys.exit("e2e toy counters moved:\n  " + "\n  ".join(bad))
    print(f"e2e toy counters match the committed reference on {len(WORKLOADS)} workloads")


def cmd_rows(opts):
    exe = build(opts.root)
    rows = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            m, _ = measure(exe, opts.root, workload, seed)
            rows.append({"rev": opts.rev, "workload": workload, "seed": seed,
                         "metrics": {k: rounded(v) for k, v in m.items()}})
            print(f"{opts.rev} {workload} seed {seed}: msgs {m['msgs']:.0f} "
                  f"wire_bytes {m['wire_bytes']:.0f} alloc_mb {m['alloc_mb']:.0f}",
                  flush=True)
    with open(opts.out, "w") as f:
        json.dump(rows, f)


def cmd_entry(opts):
    rows = [row for path in opts.rows for row in json.load(open(path))]
    doc = load()
    doc["entries"].append({"title": opts.title, "host": host(), "rows": rows})
    doc["toy_reference"] = toy_counters(build("."))
    save(doc)
    print(f"{OUT}: entry {len(doc['entries'])} appended ({len(rows)} rows)")


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    rows = sub.add_parser("rows")
    rows.add_argument("--rev", required=True, help="parent or change")
    rows.add_argument("--root", default=".", help="checkout to run")
    rows.add_argument("--out", required=True)
    entry = sub.add_parser("entry")
    entry.add_argument("--title", required=True)
    entry.add_argument("rows", nargs="+", help="files written by `rows`")
    sub.add_parser("toy")
    opts = parser.parse_args()
    {"rows": cmd_rows, "entry": cmd_entry, "toy": cmd_toy}[opts.cmd](opts)


if __name__ == "__main__":
    main()
