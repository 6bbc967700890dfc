package repro.spark

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core.Cost
import repro.core.SeriesGen.DatasetSpec
import repro.index.{IndexConfig, IsaxIndex, PqStat, QueryCtx, Search, SearchParams, ThresholdModel}
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

/** Every chunk's iSAX index, built from one shuffle of the partitioned
  * collection (stages 1-2 of Fig. 3), one chunk per task: chunk `c` lands in
  * task `c mod spark.sql.shuffle.partitions`. Each stage run on the handle
  * (approximate bounds, exact search) reads the same indexes; with
  * `persist` they stay resident between stages instead of being rebuilt.
  * A chunk the partitioner leaves empty has no index and no report.
  */
final class ChunkIndexes private (spark: SparkSession, indexes: RDD[(BuildStatRow, IsaxIndex)]) {

  /** Each query's best initial BSF over all chunks: the per-qid minimum of
    * the approximate search's k-th best distance, which is the
    * `QueryStatRow.approxBsf` an exact search would report.
    */
  def approxBounds(queries: Array[Array[Double]], params: SearchParams): Map[Int, Double] =
    indexes.flatMap { case (_, index) =>
      queries.indices.iterator.map { qid =>
        val ctx = new QueryCtx(queries(qid), params.mode, index.config.w, index.segSizes)
        qid -> Search.approx(index, ctx, new Cost, params.k).bound
      }
    }.collect().groupMapReduce(_._1)(_._2)(math.min)

  /** Answer `queries` on every chunk with the exact search (stage 4).
    *
    * @param startBounds per-qid shared BSF bound (k-th best) from the
    *                    approximate stage — empty map = LOCAL (no sharing)
    * @param thresholds  optional (sigmoid fit, division factor) pair driving
    *                    per-query TH from the local initial BSF
    * @return one report per non-empty chunk, sorted by chunk
    */
  def search(queries: Array[Array[Double]], params: SearchParams,
             startBounds: Map[Int, Double],
             thresholds: Option[(SigmoidFit, Double)]): Seq[ChunkReport] = {
    import spark.implicits._
    val reports = indexes.map { case (build, index) =>
      val thFn: Double => Int = thresholds match {
        case Some((fit, factor)) => bsf => ThresholdModel.thresholdFor(fit, bsf, factor)
        case None                => null
      }
      val queryRows = queries.indices.map { qid =>
        val run = Search.exact(index, queries(qid), params,
                               startBound = startBounds.getOrElse(qid, Double.PositiveInfinity),
                               thresholdOf = thFn)
        QueryStatRow(build.chunk, qid,
          topKDists = run.topK.map(_._1), topKIds = run.topK.map(_._2),
          approxBsf = run.approxBsf, approxOps = run.approxOps,
          batchOps = run.batchOps.toSeq, tasks = run.pqStats.toSeq,
          totalOps = run.totalOps, nRealDists = run.nRealDists)
      }
      ChunkReport(build, queryRows)
    }
    // collected through a Dataset so that each search is one SQL execution,
    // the unit a SparkListener sees as one pass
    val out = spark.createDataset(reports).collect().toSeq.sortBy(_.build.chunk)
    require(out.nonEmpty, "no chunks produced — empty collection?")
    out
  }

  /** Drop the resident indexes, waiting until their blocks are gone. */
  def release(): Unit =
    if (indexes.getStorageLevel != StorageLevel.NONE) indexes.unpersist(blocking = true)
}

object ChunkIndexes {

  /** Shuffle the collection by chunk and build one index per chunk.
    * `persist` keeps the indexes in memory for a second stage; the build
    * itself runs lazily, with the first stage.
    */
  def build(spark: SparkSession, spec: DatasetSpec, chunkOf: Long => Int,
            indexConfig: IndexConfig, persist: Boolean): ChunkIndexes = {
    val byChunk = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val indexes = SeriesFrame.seriesDs(spark, spec, chunkOf).rdd
      .map(r => (r.chunk, (r.id, r.values)))
      .groupByKey(byChunk)
      .map { case (chunk, rows) =>
        // Insertion order fixes leaf order and with it every op count; the
        // shuffle read order is unspecified, so insert in ascending id order.
        val index = IsaxIndex.build(rows.toArray.sortBy(_._1).iterator, indexConfig)
        val bs = index.buildStats
        (BuildStatRow(chunk, bs.nSeries, bs.bufferOps, bs.treeOps,
                      bs.indexBytes, bs.nLeaves, bs.nInner, bs.nRoots), index)
      }
    new ChunkIndexes(spark, if (persist) indexes.persist(StorageLevel.MEMORY_ONLY) else indexes)
  }
}

/** The distributed dataflow (stages 1-2-4 of Fig. 3) in one pass: build
  * every chunk's index and answer the whole broadcast query batch on it
  * with the index-pruned exact search. Stage-3 scheduling and stage-5
  * merging happen on the driver ([[repro.cluster.OdysseyCluster]]).
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
          thresholds: Option[(SigmoidFit, Double)] = None): Seq[ChunkReport] =
    ChunkIndexes.build(spark, spec, chunkOf, indexConfig, persist = false)
      .search(queries, params, startBounds, thresholds)

  /** Merge per-chunk top-k lists into the global exact top-k per query. */
  def mergeAnswers(reports: Seq[ChunkReport], k: Int): Map[Int, List[(Double, Long)]] =
    reports.flatMap(_.queries)
      .groupBy(_.qid)
      .view.mapValues { rows =>
        rows.flatMap(r => r.topKDists.zip(r.topKIds)).sortBy(_._1).take(k).toList
      }.toMap
}
