#!/usr/bin/env python3
"""Odyssey benchmark entry point.

    python3 odybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Compiles the program (src/main/scala) and the
harness (odybench/scala) with the Scala compiler shipped in Spark's jars,
runs one workload in a fresh JVM, and prints the metrics; the last line of
standard output is the result object. Build outputs, Spark scratch space and
temporary files go under $CARGO_TARGET_DIR (default .bench_build).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import report  # noqa: E402

RUN_LIMIT_S = 175
BUILD_LIMIT_S = 600
HEAP = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC"]

# Spark on JDK 17 needs these module openings (as spark-submit passes them).
JAVA_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions",
              "-Djdk.reflect.useDirectMethodHandle=false",
              "-Dio.netty.tryReflectionSetAccessible=true"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print("odybench: " + msg, file=sys.stderr)
    sys.exit(2)


def spark_jars():
    """Spark's jars: $SPARK_HOME/jars, else the first jars directory beside a
    spark-submit on PATH that holds Spark and a Scala compiler."""
    homes = [Path(os.environ["SPARK_HOME"])] if os.environ.get("SPARK_HOME") else [
        (Path(d) / "spark-submit").resolve().parent.parent
        for d in os.environ.get("PATH", "").split(os.pathsep) if (Path(d) / "spark-submit").is_file()]
    for home in homes:
        jars = home / "jars"
        if list(jars.glob("spark-core_*.jar")) and list(jars.glob("scala-compiler-*.jar")):
            return jars
    fail("no Spark jars with a Scala compiler found; set SPARK_HOME")


def sources():
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        fail("program sources not found at %s" % main)
    srcs = sorted(main.rglob("*.scala")) + sorted((HERE / "scala").glob("*.scala"))
    if not srcs:
        fail("no Scala sources")
    return srcs


def build(out, jars, tmp):
    """Compile program + harness into out/classes unless the sources are unchanged."""
    srcs = sources()
    digest = hashlib.sha256()
    for p in srcs:
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    stamp = digest.hexdigest()
    classes = out / "classes"
    stamp_file = classes / "STAMP"
    if stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    print("odybench: compiling %d sources" % len(srcs), file=sys.stderr)
    # -classpath keeps scalac from reading the working directory as packages
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-Djava.io.tmpdir=%s" % tmp,
           "-cp", str(jars / "*"), "scala.tools.nsc.Main", "-usejavacp", "-classpath", str(classes),
           "-nowarn", "-d", str(classes)] + [str(p) for p in srcs]
    subprocess.run(cmd, check=True, timeout=BUILD_LIMIT_S, stdout=sys.stderr)
    stamp_file.write_text(stamp)
    return classes


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=report.WORKLOADS + report.UNGATED_WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    jars = spark_jars()
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = Path.cwd() / out
    out = out / "odybench"
    tmp = out / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    classes = build(out, jars, tmp)

    threads = len(os.sched_getaffinity(0))
    raw_file = out / "raw.json"
    if raw_file.exists():
        raw_file.unlink()
    cmd = ["java"] + HEAP + ["-XX:-UsePerfData", "-Djava.io.tmpdir=%s" % tmp,
           "-Dspark.local.dir=%s" % (tmp / "spark"),
           "-Dspark.sql.warehouse.dir=%s" % (tmp / "warehouse"),
           "-Dspark.driver.host=127.0.0.1",
           "-Dlog4j2.configurationFile=%s" % (HERE / "log4j2.properties")] + JAVA_OPENS + [
        "-cp", "%s%s%s" % (classes, os.pathsep, jars / "*"), "odybench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace, "--threads", str(threads), "--out", str(raw_file)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_S)
    shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not raw_file.exists():
        fail("harness exited with code %d" % proc.returncode)

    raw = json.loads(raw_file.read_text())
    res = report.result(raw)
    for line in report.describe(raw, res):
        print(line)
    print("machine: %s; run took %.1f s" % (json.dumps(raw["machine"]), time.monotonic() - started))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
