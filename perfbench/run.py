#!/usr/bin/env python3
"""Seeded end-to-end benchmark of Jockey scenario runs.

Run from the repository root:

    python3 perfbench/run.py --workload catalog_cold --seed 1 --seconds 20 --trace 0

Builds perfbench_driver (Release, under .bench_build/), generates the workload's
scenario documents from --seed under .bench_work/, runs the driver on them and
prints, as the last stdout line, one JSON object with the keys correct, attempted,
failed and metrics. The line before it is the full report: the run manifest (git
commit when available, a digest of the sources, build type, compiler, nproc,
table-build threads, seed, workloads) plus a digest of every generated document.
The report is also written to .bench_work/reports/. Exits non-zero if any check
failed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("catalog_cold", "catalog_warm", "episode_stream", "traced_stream")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
WORK_DIR = Path(".bench_work")
DRIVER_TIMEOUT_S = 170

# The seven letter jobs plus four random shapes, one tight Jockey episode each.
CATALOG_LETTERS = "ABCDEFG"
CATALOG_RANDOM_SHAPES = 4
# Document groups: each group has its own episode seeds. Passes cycle through the
# groups, and the simulated metrics cover every group's episodes, which keeps them
# from swinging with the seed. Catalog group g takes its four random shapes from
# shape set g mod CATALOG_SHAPE_SETS, so a seed averages over 16 shapes rather than
# 4; set-up runs the first CATALOG_SHAPE_SETS groups, which name every job. Stream
# groups all share their random shapes, so set-up runs the first group.
CATALOG_GROUPS = 16
CATALOG_SHAPE_SETS = 4
STREAM_GROUPS = 4
# A narrow shape envelope keeps the random jobs' build cost similar across seeds.
RANDOM_SHAPE = (
    "      min_stages: 8\n"
    "      max_stages: 12\n"
    "      min_vertices: 400\n"
    "      max_vertices: 900\n"
    "      min_median_seconds: 3\n"
    "      max_median_seconds: 8\n"
)


def derive(seed, *tags):
    """A document seed: a pure function of the benchmark seed and a tag path."""
    text = ":".join([str(seed)] + [str(t) for t in tags])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") % 1_000_000 + 1


def catalog_documents(seed):
    docs = []
    for g in range(CATALOG_GROUPS):
        for letter in CATALOG_LETTERS:
            docs.append((f"g{g:02d}_cat_{letter}",
                         f"name: cat_{letter}\nseed: {derive(seed, 'cat', g, letter)}\n"
                         f"workload:\n  - job: {letter}\n    deadline: tight\n"))
        for i in range(CATALOG_RANDOM_SHAPES):
            name = f"cat_r{i}"
            docs.append((f"g{g:02d}_{name}",
                         f"name: {name}\nseed: {derive(seed, 'cat', g, name)}\nworkload:\n"
                         f"  - random:\n      name: r{i}\n"
                         f"      seed: {derive(seed, 'cat', name, 'shape', g % CATALOG_SHAPE_SETS)}\n"
                         f"{RANDOM_SHAPE}    deadline: tight\n"))
    return docs


SEED_LINE = re.compile(r"^( *)(seed: )\d+\s*$")
# `seed:` this deep sits under a workload entry's `random:` map.
SHAPE_SEED_INDENT = 6


def stream_documents(seed):
    """The frozen scenarios with every `seed:` (scenario, random shape, fault plan)
    rewritten from the benchmark seed. Random-shape seeds are shared by all groups."""
    docs = []
    for g in range(STREAM_GROUPS):
        for path in sorted((HERE / "scenarios").glob("*.yaml")):
            lines = path.read_text().splitlines()
            for i, line in enumerate(lines):
                m = SEED_LINE.match(line)
                if m:
                    shape = len(m.group(1)) >= SHAPE_SEED_INDENT
                    value = derive(seed, path.stem, i) if shape else derive(seed, g, path.stem, i)
                    lines[i] = m.group(1) + m.group(2) + str(value)
            docs.append((f"g{g}_{path.stem}", "\n".join(lines) + "\n"))
    return docs


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def source_digest():
    """Digest of every file the driver is built from, so reports from checkouts
    without git history still join on the code they measured."""
    h = hashlib.sha256()
    files = [ROOT / "src"] + [HERE]
    for base in files:
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py", ".yaml"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(jobs):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure += generator
    for cmd in (configure,
                ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver",
                 "-j", str(jobs)]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no Jockey sources under {ROOT}/src; run from a full checkout")
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    threads = min(4, len(os.sched_getaffinity(0)))
    driver = build(threads)

    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    catalog = args.workload.startswith("catalog_")
    generated = catalog_documents(args.seed) if catalog else stream_documents(args.seed)
    doc_paths = []
    digests = {}
    for name, text in generated:
        path = work / "docs" / f"{name}.yaml"
        path.write_text(text)
        doc_paths.append(str(path))
        digests[name] = sha256_hex(text.encode())

    cmd = [str(driver), "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work / "run"),
           "--spans-out", str(work / f"spans-seed{args.seed}.jsonl"),
           "--groups", str(CATALOG_GROUPS if catalog else STREAM_GROUPS),
           "--setup-groups", str(CATALOG_SHAPE_SETS if catalog else 1)] + doc_paths
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: driver exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    shutil.rmtree(work / "run", ignore_errors=True)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        sys.exit("perfbench: driver metrics do not match BENCHMARK.json: "
                 + " ".join(sorted(set(result["metrics"]) ^ expected)))

    report = result.pop("report")
    report.update({
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": list(WORKLOADS),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "document_sha256": digests,
        "metrics": result["metrics"],
    })
    reports = WORK_DIR / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if proc.returncode == 0 and result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
