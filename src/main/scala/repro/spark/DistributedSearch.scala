package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.Cost
import repro.core.SeriesGen.DatasetSpec
import repro.index.{IndexConfig, IsaxIndex, PqStat, Search, SearchParams}
import repro.index.ThresholdModel.SigmoidFit

/** Per-(chunk, query) measurement: the local answer plus the op breakdown
  * the cluster simulator needs (`tasks` = the run's processed PQs, in order).
  */
final case class QueryStatRow(
    chunk: Int, qid: Int,
    topKDists: Seq[Double], topKIds: Seq[Long],
    approxBsf: Double, approxOps: Long,
    batchOps: Seq[Long], tasks: Seq[PqStat],
    totalOps: Long, nRealDists: Long) {
  def bestDist: Double = if (topKDists.isEmpty) Double.PositiveInfinity else topKDists.head
  def bestId: Long = if (topKIds.isEmpty) -1L else topKIds.head
}

/** Per-chunk index build measurement. */
final case class BuildStatRow(chunk: Int, nSeries: Long, bufferOps: Long, treeOps: Long,
                              indexBytes: Long, nLeaves: Int, nInner: Int, nRoots: Int)

final case class ChunkReport(build: BuildStatRow, queries: Seq[QueryStatRow])

/** The distributed dataflow (stages 1-2-4 of Fig. 3): the partitioned
  * collection flows through a Dataset; each chunk group builds its iSAX
  * index and answers the whole broadcast query batch with the index-pruned
  * exact search, emitting answers and op breakdowns. Stage-3 scheduling and
  * stage-5 merging happen on the driver ([[repro.cluster.OdysseyCluster]]).
  */
object DistributedSearch {

  /** Build every chunk's index and answer `queries` on it.
    *
    * @param startBounds per-qid shared BSF bound (k-th best) from a previous
    *                    pass — empty map = LOCAL (no sharing)
    * @param thresholds  optional (sigmoid fit, division factor) pair driving
    *                    per-query TH from the local initial BSF
    */
  def run(spark: SparkSession, spec: DatasetSpec, chunkOf: Long => Int,
          queries: Array[Array[Double]], params: SearchParams,
          indexConfig: IndexConfig = IndexConfig(),
          startBounds: Map[Int, Double] = Map.empty,
          thresholds: Option[(SigmoidFit, Double)] = None): Seq[ChunkReport] = {
    import spark.implicits._
    val qs = queries // local val: avoid closing over anything non-serializable
    val reports = SeriesFrame.seriesDs(spark, spec, chunkOf)
      .groupByKey(_.chunk)
      .flatMapGroups { (chunk: Int, it: Iterator[SeriesRow]) =>
        val buildCost = new Cost
        val index = IsaxIndex.build(it.map(r => (r.id, r.values)), indexConfig, buildCost)
        val bs = index.buildStats
        val build = BuildStatRow(chunk, bs.nSeries, bs.bufferOps, bs.treeOps,
                                 bs.indexBytes, bs.nLeaves, bs.nInner, bs.nRoots)
        val thFn: Double => Int = thresholds match {
          case Some((fit, factor)) => bsf => repro.index.ThresholdModel.thresholdFor(fit, bsf, factor)
          case None                => null
        }
        val queryRows = qs.indices.map { qid =>
          val run = Search.exact(index, qs(qid), params,
                                 startBound = startBounds.getOrElse(qid, Double.PositiveInfinity),
                                 thresholdOf = thFn)
          QueryStatRow(chunk, qid,
            topKDists = run.topK.map(_._1), topKIds = run.topK.map(_._2),
            approxBsf = run.approxBsf, approxOps = run.approxOps,
            batchOps = run.batchOps.toSeq, tasks = run.pqStats.toSeq,
            totalOps = run.totalOps, nRealDists = run.nRealDists)
        }
        Iterator.single(ChunkReport(build, queryRows))
      }
      .collect()
      .toSeq
      .sortBy(_.build.chunk)
    require(reports.nonEmpty, "no chunks produced — empty collection?")
    reports
  }

  /** Merge per-chunk top-k lists into the global exact top-k per query. */
  def mergeAnswers(reports: Seq[ChunkReport], k: Int): Map[Int, List[(Double, Long)]] =
    reports.flatMap(_.queries)
      .groupBy(_.qid)
      .view.mapValues { rows =>
        rows.flatMap(r => r.topKDists.zip(r.topKIds)).sortBy(_._1).take(k).toList
      }.toMap
}
