package odybench

import repro.cluster.Layout
import repro.core.{Cost, Distances, ISax, Paa, SeriesGen}
import repro.index.{IsaxIndex, QueryCtx, Search, ThresholdModel}
import repro.spark.ChunkReport

/** Driver-side measurements of the `index` and `core` layers, recorded as
  * spans on the workload's own series and queries.
  */
object Layers {
  private val RootsSortedCalls = 10
  private val KernelReps = 3
  private val DtwRadius = 12 // the random-partial-dtw band; ED workloads time the same kernel

  /** Ids of each chunk in ascending order: the order in which the
    * pipeline's post-shuffle task receives them (checked by the op gate).
    */
  def chunkIds(prep: Prepared): Array[Array[Int]] = {
    val layout = Layout(prep.cfg.nNodes, prep.cfg.k)
    val part = prep.cfg.partitioner(layout.nChunks)
    (0 until prep.spec.n).toArray.groupBy(id => part.chunkOf(id.toLong))
      .toArray.sortBy(_._1).map(_._2.sorted)
  }

  /** Mismatches between the replica's `Search.exact` op counts and the
    * pipeline's `QueryStatRow.totalOps`, one entry per (chunk, qid).
    */
  final case class ReplicaResult(opMismatches: Seq[String], heapMb: Option[Double])

  /** Rebuild every chunk index from `series` and answer every query on it
    * with the start bound and TH of the pipeline pass that produced `reports`.
    */
  def replica(tr: Tracer, prep: Prepared, series: Array[Array[Double]], chunks: Array[Array[Int]],
              reports: Seq[ChunkReport], bounds: Map[Int, Double],
              measureHeap: Boolean): ReplicaResult = {
    val cfg = prep.cfg
    val thFn: Double => Int = cfg.thresholds match {
      case Some((fit, factor)) => bsf => ThresholdModel.thresholdFor(fit, bsf, factor)
      case None                => null
    }
    val indexes = tr.span("index.replica_build") {
      chunks.map { ids =>
        tr.span("index.build") {
          val idx = IsaxIndex.build(ids.iterator.map(id => (id.toLong, series(id))), cfg.indexConfig)
          tr.tag("series", ids.length.toDouble)
          idx
        }
      }
    }

    val mismatches = Seq.newBuilder[String]
    tr.span("index.replica_search") {
      indexes.zip(reports).foreach { case (idx, rep) =>
        (0 until RootsSortedCalls).foreach { _ =>
          tr.span("index.roots_sorted") { Sink.add(idx.rootsSorted.length) }
        }
        val byQid = rep.queries.map(q => q.qid -> q).toMap
        prep.queries.indices.foreach { qid =>
          val q = prep.queries(qid)
          tr.span("index.approx") {
            val ctx = new QueryCtx(q, cfg.params.mode, cfg.indexConfig.w, idx.segSizes)
            Sink.add(Search.approx(idx, ctx, new Cost, cfg.params.k).bound)
          }
          val run = tr.span("index.exact") {
            val r = Search.exact(idx, q, cfg.params,
                                 startBound = bounds.getOrElse(qid, Double.PositiveInfinity),
                                 thresholdOf = thFn)
            tr.tag("ops", r.totalOps.toDouble)
            r
          }
          val want = byQid(qid).totalOps
          if (run.totalOps != want)
            mismatches += s"chunk ${rep.build.chunk} qid $qid: replica ${run.totalOps} ops, pipeline $want"
        }
      }
    }
    // retained size: heap after GC with the indexes held, minus without them
    val heapMb = if (!measureHeap) None else {
      val held = Jvm.heapAfterGcMb()
      java.util.Arrays.fill(indexes.asInstanceOf[Array[AnyRef]], null)
      Some(held - Jvm.heapAfterGcMb())
    }
    ReplicaResult(mismatches.result(), heapMb)
  }

  /** Time the public `core` kernels; each span's `units` attr is what its
    * duration is divided by (series, points, DP cells or segments).
    */
  def kernels(tr: Tracer, prep: Prepared, series: Array[Array[Double]]): Unit = tr.span("core.kernels") {
    val w = prep.cfg.indexConfig.w
    val sample = series.take(2048)
    val qs = prep.queries.take(16)
    val segSizes = Paa.segmentSizes(prep.spec.length, w)
    val fullBits = Array.fill(w)(ISax.MaxBits)
    val words = sample.map(s => ISax.word(Paa.of(s, w)))
    val qPaas = qs.map(Paa.of(_, w))
    val envs = qs.map(Distances.envelope(_, DtwRadius))
    val inf = Double.PositiveInfinity

    def timed(name: String)(body: Cost => Long): Unit = tr.span(name) {
      val cost = new Cost
      tr.tag("units", body(cost).toDouble)
    }

    (0 until KernelReps).foreach { _ =>
      timed("core.gen") { _ =>
        sample.indices.foreach(id => Sink.add(SeriesGen.series(prep.spec, id.toLong)(0)))
        sample.length
      }
      timed("core.summarize") { _ =>
        sample.foreach(s => Sink.add(ISax.word(Paa.of(s, w))(0)))
        sample.length
      }
      timed("core.ed") { cost =>
        qs.foreach(q => sample.foreach(s => Sink.add(Distances.edEarlyAbandon(q, s, inf, cost))))
        cost.ops
      }
      timed("core.mindist") { _ =>
        qPaas.foreach(p => words.foreach(wd => Sink.add(ISax.mindistPaaToWord(p, segSizes, wd, fullBits))))
        qPaas.length.toLong * words.length * w
      }
      timed("core.lb_keogh") { cost =>
        envs.foreach { case (up, lo) => sample.foreach(s => Sink.add(Distances.lbKeogh(s, up, lo, inf, cost))) }
        cost.ops
      }
      timed("core.dtw") { cost =>
        qs.take(4).foreach(q => sample.take(128).foreach(s => Sink.add(Distances.dtwBand(q, s, DtwRadius, inf, cost))))
        cost.ops
      }
    }
  }
}

/** Keeps timed results alive so the JIT cannot drop the work. */
object Sink {
  private var acc = 0.0
  def add(x: Double): Unit = if (!x.isInfinite) acc += x
  def value: Double = acc
}
