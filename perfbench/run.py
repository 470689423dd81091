#!/usr/bin/env python3
"""Speed benchmark of the Neighborhood Detection reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload insert|turnstile|spark \
        --seed N --seconds S --trace 0|1

Builds the program and the benchmark from source with sbt (offline) when
the sources changed since the last build, then runs the workload in fresh
JVMs started with plain `java`, so sbt's own start is outside every metric.
With --trace 0 it starts JVMS JVMs one after another. Every JVM sets up,
and together they measure whole rounds for S seconds: each takes an even
share of the time the JVMs before it left, and the first always makes at
least one round. It prints the end-to-end metrics. With --trace 1 it starts
one JVM that interleaves untraced and traced rounds for S seconds and prints
the per-layer metrics. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSPATH = os.path.join(HERE, "target", "runtime-classpath.txt")
STAMP = os.path.join(WORK, "build.stamp")

HEAP = "3g"           # JVM heap, passed as SPARK_DRIVER_MEM and -Xmx/-Xms
JVMS = 2              # JVMs per untraced run: setup_s is their median
RUN_LIMIT_S = 170     # a run past this is cut and fails
BUILD_LIMIT_S = 840

# What the build reads: the program's sources and build, and the benchmark's.
PROGRAM = ["build.sbt", "project/build.properties", "src/main", "jobs/src/main"]
BENCH = ["perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/main"]

SBT_OPTS = ("-Dsbt.override.build.repos=true "
            f"-Dsbt.repository.config={os.path.expanduser('~/.sbt/repositories')} "
            "-Dsbt.offline=true -Xmx4g")

MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]

PER_LAYER = {
    "core.insertion_nd.ns_per_record.c2": "ns", "core.insertion_nd.ns_per_record.c4": "ns",
    "core.insertion_nd.peak_words.c2": "words", "core.insertion_nd.peak_words.c4": "words",
    "core.star.ns_per_edge": "ns", "core.star.peak_words": "words",
    "baseline.space_saving.ns_per_record": "ns", "baseline.misra_gries.ns_per_record": "ns",
    "baseline.exact_nd.ns_per_record": "ns", "baseline.space_saving.peak_words": "words",
    "baseline.misra_gries.peak_words": "words", "baseline.exact_nd.peak_words": "words",
    "sketch.turnstile.ns_per_op.c2": "ns", "sketch.turnstile.ns_per_op.c4": "ns",
    "sketch.turnstile.result_ms": "ms", "sketch.turnstile.words": "words",
    "sketch.turnstile.samplers": "count", "sketch.turnstile.sampler_updates": "count",
    "spark.l0.wall_s": "s", "spark.l0.tasks": "count", "spark.l0.executor_run_ms": "ms",
    "spark.degres.wall_s": "s", "spark.degres.jobs": "count", "spark.degres.stages": "count",
    "spark.degres.tasks": "count", "spark.degres.shuffle_write_bytes": "bytes",
    "spark.degres.executor_run_ms": "ms",
    "spark.stream.wall_s": "s", "spark.stream.batch_ms": "ms", "spark.stream.add_batch_ms": "ms",
    "spark.stream.planning_ms": "ms", "spark.stream.tasks_per_batch": "count",
    "spark.stream.state_rows": "count", "spark.stream.state_bytes": "bytes",
    "spark.stream.sink_rows": "count", "spark.stream.shuffle_write_bytes": "bytes",
    "jobs.session_start_s": "s", "bench.trace_overhead_s": "s",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_stamp():
    h = hashlib.sha256()
    for rel in PROGRAM + BENCH:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read() == stamp:
                return
    env = dict(os.environ, COURSIER_MODE="offline", SBT_OPTS=SBT_OPTS)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "writeClasspath"]
    try:
        done = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed with code {done.returncode}")
    os.makedirs(WORK, exist_ok=True)
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def trace_file(args):
    return os.path.join(WORK, "traces", f"{args.workload}-{args.seed}.jsonl")


def run_jvm(args, seconds, min_rounds, deadline, scratch, index):
    tmp = os.path.join(scratch, f"jvm{index}")
    os.makedirs(os.path.join(tmp, "spark-local"))
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS")}
    env.update(SPARK_DRIVER_MEM=HEAP, SPARK_LOCAL_DIRS=os.path.join(tmp, "spark-local"))
    # -XX:-UsePerfData: no hsperfdata file in /tmp, so the JVM writes only
    # inside the checkout.
    cmd = (["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:-UsePerfData", "-Dspark.driver.host=127.0.0.1",
            "-Dspark.ui.enabled=false", f"-Djava.io.tmpdir={tmp}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in MODULE_OPENS]
           + ["-cp", classpath, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(seconds), "--min-rounds", str(min_rounds),
              "--trace", str(args.trace), "--jvm", str(index)])
    if args.trace:
        cmd += ["--trace-file", trace_file(args)]
    log = os.path.join(scratch, f"jvm{index}.log")
    with open(log, "w") as err:
        try:
            done = subprocess.run(cmd + ["--t0-ns", str(time.time_ns())], cwd=ROOT, env=env,
                                  stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                                  timeout=max(1.0, deadline - time.monotonic()), text=True)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload}: JVM {index} did not finish in time")
    lines = [l for l in done.stdout.splitlines() if l.startswith("PERFBENCH ")]
    if done.returncode != 0 or not lines:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"{args.workload}: JVM {index} exited with code {done.returncode} before its end")
    return json.loads(lines[-1][len("PERFBENCH "):])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["insert", "turnstile", "spark"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    missing = [rel for rel in PROGRAM if not os.path.exists(os.path.join(ROOT, rel))]
    if missing:
        fail(f"program sources missing: {', '.join(missing)}")
    build()

    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        jvms = 1 if args.trace else JVMS
        parts = []
        for i in range(jvms):
            left = args.seconds - sum(part["measured_s"] for part in parts)
            parts.append(run_jvm(args, left / (jvms - i), int(i == 0), deadline, scratch, i))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for fault in sorted({f for part in parts for f in part["faults"]}):
        print(f"perfbench: FAILED {fault}", file=sys.stderr)
    if args.trace:
        print(f"perfbench: spans in {os.path.relpath(trace_file(args), ROOT)}", file=sys.stderr)
        layer = parts[0]["layer"]
        metrics = {k: {"value": float(layer.get(k, 0.0)), "unit": u} for k, u in PER_LAYER.items()}
    else:
        rates = [r for part in parts for r in part["rates"]]
        metrics = {
            "setup_s": {"value": statistics.median(part["setup_s"] for part in parts), "unit": "s"},
            "records_per_s": {"value": statistics.median(rates), "unit": "records/s"},
        }
        print(f"perfbench: {args.workload} seed {args.seed}: rounds "
              f"{[part['rounds'] for part in parts]}, {parts[0]['records_per_round']} records a round, "
              f"setup {[round(part['setup_s'], 3) for part in parts]} s", file=sys.stderr)
    print(json.dumps({
        "correct": all(part["wrong"] == 0 for part in parts),
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
