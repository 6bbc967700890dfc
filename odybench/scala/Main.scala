package odybench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.cluster._
import repro.index.QueryRun
import repro.spark.{ChunkReport, DistributedSearch, QueryStatRow}

object Jvm {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  def cpuNs: Long = os.getProcessCpuTime
  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
  /** Heap in use after two explicit full collections, in MB (1e6 bytes). */
  def heapAfterGcMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }
  def secsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9
}

/** Minimal JSON writer for the raw measurement file. */
object Json {
  def apply(v: Any): String = v match {
    case null                       => "null"
    case s: String                  => quote(s)
    case b: Boolean                 => b.toString
    case d: Double                  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int                     => i.toString
    case l: Long                    => l.toString
    case m: collection.Map[_, _]    => m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_]             => s.map(apply).mkString("[", ",", "]")
    case other                      => throw new IllegalArgumentException(s"not JSON: $other")
  }
  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}

/** Measures one workload for one seed and writes the raw samples, spans and
  * gate outcomes as JSON; `run.py` turns them into the reported metrics.
  *
  * Untraced mode (`--trace 0`): `Datasets` collections are generated from
  * the seed and each is set up once; batches then cycle over them, warm-up
  * first and then `OdysseyCluster.run` for `--seconds`, each batch checked
  * against the expected answers. Traced mode (`--trace 1`) uses the first
  * of those collections: untraced batches for half the time, then
  * iterations of one untraced batch and one traced re-run of a batch's
  * stages, followed by the driver-side index replica and the core kernels,
  * all under spans.
  */
object Main {
  /** Collections per untraced run: averaging over several data sets keeps
    * the run's median from following one collection's quirks.
    */
  val Datasets = 4
  /** Untimed batches before the timed ones: at least one per collection, for at least `WarmupSecs`. */
  private val WarmupSecs = 10.0
  /** `heap_retained_mb` is read after this many timed batches in every run. */
  private val HeapAfterBatches = 4
  /** Set-ups without model training take well under 1 ms; they are
    * repeated, cycling over the collections, for `PlainSetupSecs`.
    */
  private val PlainSetupSecs = 0.5

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        threads: Int, out: String)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         m.get("threads").map(_.toInt).getOrElse(Runtime.getRuntime.availableProcessors()), need("out"))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val wl = Workloads.byName(opts.workload)
    val spark = SparkSession.builder
      .master(s"local[${opts.threads}]")
      .appName("odybench")
      .config("spark.ui.enabled", "false")
      // one reduce task per shuffle partition, never merged by size, so the
      // chunk-to-task layout is the same for every seed
      .config("spark.sql.shuffle.partitions", "16")
      .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    try {
      val raw = mutable.LinkedHashMap[String, Any](
        "workload" -> wl.name, "seed" -> opts.seed, "trace" -> opts.trace,
        "machine" -> Map("nproc" -> Runtime.getRuntime.availableProcessors(),
                         "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
                         "spark_master" -> spark.sparkContext.master,
                         "spark_version" -> spark.version))
      new Runner(spark, wl, opts, raw).run()
      raw("sink") = Sink.value
      Files.write(Paths.get(opts.out), Json(raw).getBytes(StandardCharsets.UTF_8))
    } finally spark.stop()
  }

  /** Rebuild the simulator's input from a stats row, as the pipeline does. */
  def toRun(qs: QueryStatRow): QueryRun =
    QueryRun(topK = qs.topKDists.zip(qs.topKIds).toList, approxBsf = qs.approxBsf, approxOps = qs.approxOps,
             batchOps = qs.batchOps.toArray,
             pqStats = qs.tasks.iterator.map(t => repro.index.PqStat(t.batchId, t.topLb, t.leaves, t.procOps)).toArray,
             totalOps = qs.totalOps, nLeavesTouched = 0L, nRealDists = qs.nRealDists)

  /** A prepared collection and its expected answers. */
  private final case class Data(prep: Prepared, expected: Array[Expected.Answer])

  private final class Runner(spark: SparkSession, wl: Workload, opts: Opts,
                             raw: mutable.Map[String, Any]) {
    private val t0 = System.nanoTime()
    private val gates = mutable.LinkedHashMap.empty[String, Boolean]
    private val errors = mutable.ArrayBuffer.empty[String]
    private var attempted = 0
    private var failed = 0

    private def log(msg: String): Unit = Console.err.println(f"[odybench ${Jvm.secsSince(t0)}%7.2fs] $msg")

    def run(): Unit = {
      val seeds = (0 until (if (opts.trace) 1 else Datasets)).map(j => opts.seed * Datasets + j)
      val preps = mutable.ArrayBuffer.empty[Prepared]
      val setupS = mutable.ArrayBuffer.empty[Double]
      val setupStart = System.nanoTime()
      while (setupS.length < seeds.length ||
             (!wl.usesTrainers && Jvm.secsSince(setupStart) < PlainSetupSecs)) {
        val s0 = System.nanoTime()
        val p = Workloads.setup(spark, wl, seeds(setupS.length % seeds.length))
        setupS += Jvm.secsSince(s0)
        if (preps.length < seeds.length) preps += p
      }
      raw("setup_s") = setupS.toSeq
      log(f"${setupS.length} set-ups of ${seeds.length} collections, first ${setupS.head}%.4f s, last ${setupS.last}%.4f s")

      var series: Array[Array[Double]] = null
      gates("bruteforce_matches_reference") = true
      val data = preps.map { prep =>
        series = Expected.collection(prep.spec, opts.threads)
        val mode = prep.cfg.params.mode
        val expected = Expected.answers(series, prep.queries, mode, prep.cfg.params.k, opts.threads)
        val sample = prep.queries.indices.take(if (mode == repro.index.Euclidean) 8 else 2)
        gates("bruteforce_matches_reference") &= Expected.parTabulate(sample.length, opts.threads) { i =>
          val q = sample(i)
          Expected.same(Expected.programBruteForce(series, prep.queries(q), mode, prep.cfg.params.k), expected(q))
        }.forall(identity)
        Data(prep, expected)
      }.toSeq
      log(s"expected answers ready; Search.bruteForce agrees: ${gates("bruteforce_matches_reference")}")

      if (opts.trace) traced(data.head, series)
      else { series = null; untraced(data) } // timed batches run without the benchmark's copy of a collection
      gates("batches_match_expected") = failed == 0
      raw("attempted") = attempted
      raw("failed") = failed
      raw("errors") = errors.toSeq
      raw("gates") = gates
    }

    /** One checked `OdysseyCluster.run`: (result, wall s, cpu s, gc s). */
    private def batch(d: Data): (Option[RunResult], Double, Double, Double) = {
      val c0 = Jvm.cpuNs; val g0 = Jvm.gcMs; val w0 = System.nanoTime()
      val res =
        try Some(OdysseyCluster.run(spark, d.prep.spec, d.prep.queries, d.prep.cfg, d.prep.predictor))
        catch { case NonFatal(e) => errors += e.toString; None }
      val wall = Jvm.secsSince(w0)
      val cpu = (Jvm.cpuNs - c0) / 1e9
      val gc = (Jvm.gcMs - g0) / 1e3
      attempted += 1
      if (!res.exists(r => Expected.matches(r.answers, d.expected))) {
        failed += 1
        if (res.nonEmpty) errors += s"batch $attempted: answers differ from the expected answers"
      }
      (res, wall, cpu, gc)
    }

    private def untraced(data: Seq[Data]): Unit = {
      val warm = System.nanoTime()
      var warmed = 0
      while (warmed < data.length || Jvm.secsSince(warm) < WarmupSecs) { batch(data(warmed % data.length)); warmed += 1 }
      val wall = mutable.ArrayBuffer.empty[Double]
      val cpu = mutable.ArrayBuffer.empty[Double]
      val gc = mutable.ArrayBuffer.empty[Double]
      val workOps = mutable.Map.empty[Int, Long]
      val start = System.nanoTime()
      while (Jvm.secsSince(start) < opts.seconds || wall.length < HeapAfterBatches) {
        val i = wall.length % data.length
        val (r, w, c, g) = batch(data(i))
        wall += w; cpu += c; gc += g
        r.foreach(res => workOps(i) = res.queryStats.map(_.totalOps).sum)
        if (wall.length == HeapAfterBatches) raw("heap_retained_mb") = Jvm.heapAfterGcMb()
      }
      raw("work_ops") = workOps.values.sum / data.length
      raw("batch_wall_s") = wall.toSeq
      raw("batch_cpu_s") = cpu.toSeq
      raw("jvm_gc_s") = gc.toSeq
      log(s"${wall.length} timed batches, median ${wall.sorted.apply(wall.length / 2)} s")
    }

    private def traced(d: Data, series: Array[Array[Double]]): Unit = {
      val prep = d.prep
      batch(d)
      // trainer costs for the per-layer report, on every workload
      val tp0 = System.nanoTime()
      OdysseyCluster.trainPredictor(spark, prep.spec, Workloads.NTrain, prep.cfg.params, Workloads.Index)
      raw("train_predictor_s") = Jvm.secsSince(tp0)
      val tt0 = System.nanoTime()
      OdysseyCluster.trainThreshold(spark, prep.spec, Workloads.NTrain, prep.cfg.params, Workloads.Index)
      raw("train_threshold_s") = Jvm.secsSince(tt0)

      val heap0 = Jvm.heapAfterGcMb()
      val wall = mutable.ArrayBuffer.empty[Double]
      val gc = mutable.ArrayBuffer.empty[Double]
      var ref: Option[RunResult] = None
      val start = System.nanoTime()
      while (Jvm.secsSince(start) < opts.seconds / 2 || wall.length < 2) {
        val (r, w, _, g) = batch(d)
        wall += w; gc += g
        if (r.nonEmpty) ref = r
      }
      raw("jvm_heap_growth_mb_per_batch") = (Jvm.heapAfterGcMb() - heap0) / wall.length
      raw("batch_wall_s") = wall.toSeq
      raw("jvm_gc_s") = gc.toSeq
      log(s"${wall.length} untraced batches")

      val probe = new SparkProbe
      spark.sparkContext.addSparkListener(probe)
      val tr = new Tracer
      val chunks = Layers.chunkIds(prep)
      val mismatches = mutable.LinkedHashSet.empty[String]
      gates("traced_answers_equal_untraced") = ref.nonEmpty
      gates("traced_query_secs_equal_untraced") = ref.nonEmpty
      val untracedWall = mutable.ArrayBuffer.empty[Double]
      var iter = 0
      var last: TracedBatch = null
      do {
        // an untraced batch next to each traced one: the tracing overhead
        // compares batches run at the same point of the JVM's warm-up
        untracedWall += batch(d)._2
        tr.newTrace(iter)
        last = tracedBatch(tr, probe, prep)
        attempted += 1
        val sameAsUntraced = ref.exists(_.answers == last.answers)
        gates("traced_answers_equal_untraced") &= sameAsUntraced
        gates("traced_query_secs_equal_untraced") &= ref.exists(_.querySecs == last.querySecs)
        if (!sameAsUntraced || !Expected.matches(last.answers, d.expected)) {
          failed += 1
          errors += s"traced iteration $iter: answers differ"
        }
        val rr = Layers.replica(tr, prep, series, chunks, last.reports, last.bounds, measureHeap = iter == 0)
        mismatches ++= rr.opMismatches
        rr.heapMb.foreach(h => raw("index_heap_mb") = h)
        Layers.kernels(tr, prep, series)
        iter += 1
      } while (Jvm.secsSince(start) < opts.seconds)
      spark.sparkContext.removeSparkListener(probe)
      raw("interleaved_wall_s") = untracedWall.toSeq
      ref.foreach { r =>
        raw("values") = Map("cluster.sim_query_s" -> r.querySecs, "cluster.sim_index_s" -> r.indexSecs,
                            "cluster.steals" -> r.nSteals.toDouble) ++ indexCounts(prep, last.reports)
      }
      gates("replica_ops_equal_pipeline") = mismatches.isEmpty
      errors ++= mismatches.take(5)
      raw("spans") = tr.spans.map(s => Map("trace" -> s.trace, "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
                                           "start_ns" -> s.startNs, "end_ns" -> s.endNs, "attrs" -> s.attrs))
      log(s"$iter traced iterations, ${tr.spans.length} spans")
    }

    private final case class TracedBatch(answers: Map[Int, Expected.Answer], querySecs: Double,
                                         reports: Seq[ChunkReport], bounds: Map[Int, Double])

    /** One batch's stages, called one by one as `OdysseyCluster.run` calls them. */
    private def tracedBatch(tr: Tracer, probe: SparkProbe, prep: Prepared): TracedBatch = tr.span("batch") {
      val cfg = prep.cfg
      val layout = Layout(cfg.nNodes, cfg.k)
      val chunkOf = cfg.partitioner(layout.nChunks).chunkOf _
      def pass(bounds: Map[Int, Double]): Seq[ChunkReport] = tr.span("spark.pass") {
        val (reps, counters) = probe.measure {
          DistributedSearch.run(spark, prep.spec, chunkOf, prep.queries, cfg.params, cfg.indexConfig,
                                bounds, cfg.thresholds)
        }
        counters.attrs.foreach { case (k, v) => tr.tag(k, v) }
        reps
      }
      val local = pass(Map.empty)
      val (reports, bounds) =
        if (cfg.bsfShare && layout.nChunks > 1) {
          val b = local.flatMap(_.queries).groupBy(_.qid).view.mapValues(_.map(_.approxBsf).min).toMap
          (pass(b), b)
        } else (local, Map.empty[Int, Double])
      val answers = tr.span("cluster.merge") { DistributedSearch.mergeAnswers(reports, cfg.params.k) }
      val qids = prep.queries.indices.toSeq
      var worst = 0.0
      tr.span("cluster.schedule") {
        reports.foreach { rep =>
          val byQid = rep.queries.map(q => q.qid -> q).toMap
          val works = tr.span("cluster.plan") {
            byQid.view.mapValues(qs => IntraNodeSim.plan(qs.qid, toRun(qs), cfg.threads)).toMap
          }
          val est: Int => Double = q => prep.predictor.map(_.predict(byQid(q).approxBsf)).getOrElse(1.0)
          val res = tr.span("cluster.steal_sim") {
            StealSim.simulate(layout.degree, works, qids, cfg.scheduler, est,
                              steal = cfg.steal && layout.degree > 1, nSend = cfg.nSend,
                              threads = cfg.threads, seed = 77L + rep.build.chunk)
          }
          worst = math.max(worst, res.makespan)
        }
      }
      TracedBatch(answers, worst, reports, bounds)
    }

    /** Work counts of the pass that produced the answers; a pure perf
      * change leaves every one of them bit-identical.
      */
    private def indexCounts(prep: Prepared, reports: Seq[ChunkReport]): Map[String, Double] = {
      val rows = reports.flatMap(_.queries)
      val ops = rows.map(_.totalOps).sum.toDouble
      val real = rows.map(_.nRealDists).sum.toDouble
      val nq = prep.queries.length.toDouble
      val base = nq * reports.map(_.build.nSeries).sum
      Map(
        "index.tree_ops" -> reports.map(_.build.treeOps).sum.toDouble,
        "index.leaves" -> reports.map(_.build.nLeaves).sum.toDouble,
        "index.roots" -> reports.map(_.build.nRoots).sum.toDouble,
        "index.bytes_model" -> reports.map(_.build.indexBytes).sum / 1e6,
        "index.ops_total" -> ops,
        "index.traversal_ops_share" -> rows.map(_.batchOps.sum).sum / ops,
        "index.pq_ops_share" -> rows.map(_.tasks.map(_.procOps).sum).sum / ops,
        "index.real_dists_per_query" -> real / nq,
        "index.pqs_per_query" -> rows.map(_.tasks.length).sum / nq,
        "index.prune_ratio" -> (1 - real / base),
        "index.prune_base" -> base)
    }
  }
}
