package odybench

import org.apache.spark.sql.SparkSession
import repro.cluster._
import repro.core.SeriesGen
import repro.core.SeriesGen.DatasetSpec
import repro.index.{Dtw, IndexConfig, SearchParams}

/** One benchmark workload: a `SeriesGen` preset (seeded by the benchmark
  * seed), a query batch and the Odyssey configuration that answers it.
  * README.md records why each workload exists and which layer it stresses.
  */
final case class Workload(name: String, dataset: Long => DatasetSpec, nQueries: Int,
                          nNodes: Int, k: Int, scheduler: SchedulerKind, steal: Boolean,
                          params: SearchParams, sigmoidFactor: Option[Double]) {
  def usesPredictor: Boolean = scheduler match {
    case PredictDn | PredictSt | PredictStUnsorted => true
    case _                                         => false
  }
  def usesTrainers: Boolean = usesPredictor || sigmoidFactor.nonEmpty
}

/** What the one-time set-up hands to every batch. */
final case class Prepared(spec: DatasetSpec, queries: Array[Array[Double]], cfg: ClusterConfig,
                          predictor: Option[Prediction.LinearModel])

object Workloads {
  val Index: IndexConfig = IndexConfig(w = 8, leafCapacity = 32)
  val NTrain = 24

  val all: Seq[Workload] = Seq(
    Workload("seismic-full-ed", seed => SeriesGen.presets.seismic(16384, seed = seed), 800,
             nNodes = 4, k = 1, PredictDn, steal = true,
             SearchParams(nsb = 16), sigmoidFactor = Some(16.0)),
    Workload("random-split-build", seed => SeriesGen.presets.random(65536, seed = seed), 8,
             nNodes = 8, k = 8, Static, steal = false,
             SearchParams(nsb = 16, threshold = 16), sigmoidFactor = None),
    Workload("random-partial-dtw", seed => SeriesGen.presets.random(16384, seed = seed), 50,
             nNodes = 8, k = 4, Dynamic, steal = true,
             SearchParams(nsb = 16, threshold = 16, mode = Dtw(12)), sigmoidFactor = None),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))

  /** Whether query `q` of a batch is a noisy copy of a collection series
    * (easy) or a random walk (hard): `SeriesGen`'s default 60/40 mix, spread
    * evenly over the batch, so that every seed gets the same mix.
    */
  def easy(q: Int): Boolean = (q + 1) * 3 / 5 > q * 3 / 5

  /** The workload's one-time set-up: query generation, plus the cost
    * predictor and the TH sigmoid when the configuration uses them.
    */
  def setup(spark: SparkSession, wl: Workload, seed: Long): Prepared = {
    val spec = wl.dataset(seed)
    val queries = Array.tabulate(wl.nQueries)(q => SeriesGen.query(spec, q, if (easy(q)) 1.0 else 0.0))
    val predictor =
      if (wl.usesPredictor) Some(OdysseyCluster.trainPredictor(spark, spec, NTrain, wl.params, Index))
      else None
    val thresholds = wl.sigmoidFactor.map { factor =>
      (OdysseyCluster.trainThreshold(spark, spec, NTrain, wl.params, Index), factor)
    }
    val cfg = ClusterConfig(wl.nNodes, wl.k, n => Partitioning.RandomShuffle(n), wl.scheduler,
                            steal = wl.steal, bsfShare = true, params = wl.params,
                            indexConfig = Index, thresholds = thresholds)
    Prepared(spec, queries, cfg, predictor)
  }
}
