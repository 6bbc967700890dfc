package repro

import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

/** Spark counters of the jobs one block of code ran: the stages that wrote
  * shuffle output, the shuffle records each task read, and the storage
  * levels of the RDDs the stages computed.
  */
final class StageLog private {
  private val writers = mutable.Set.empty[Int]
  private val readRecords = mutable.Map.empty[Int, Vector[Long]].withDefaultValue(Vector.empty)
  private val levels = mutable.Set.empty[StorageLevel]
  private val stages = mutable.Set.empty[Int]
  private var fenced = false

  /** Stages in which some task wrote shuffle output. */
  def shuffleWriteStages: Set[Int] = synchronized(writers.toSet)

  /** For each stage in which some task read shuffle output: the records
    * read by each of its tasks.
    */
  def shuffleReadsPerTask: Map[Int, Vector[Long]] =
    synchronized(readRecords.filter(_._2.exists(_ > 0)).toMap)

  def storageLevels: Set[StorageLevel] = synchronized(levels.toSet)
}

object StageLog {
  private val Fence = "stage-log-fence"

  /** Run `body` and return its result with the log of the jobs it ran. */
  def of[T](spark: SparkSession)(body: => T): (T, StageLog) = {
    val log = new StageLog
    val listener = new SparkListener {
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = log.synchronized {
        if (e.stageInfo.rddInfos.exists(_.name == Fence)) { log.fenced = true; log.notifyAll() }
        else if (!log.fenced) {
          log.stages += e.stageInfo.stageId
          log.levels ++= e.stageInfo.rddInfos.map(_.storageLevel)
        }
      }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = log.synchronized {
        val m = e.taskMetrics
        // tasks of an earlier job can still end after it was aborted
        if (log.stages(e.stageId) && m != null) {
          if (m.shuffleWriteMetrics.bytesWritten > 0) log.writers += e.stageId
          log.readRecords(e.stageId) :+= m.shuffleReadMetrics.recordsRead
        }
      }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      val out = body
      // The bus delivers events in order, so once the fence job's stage is
      // seen, every event of `body` has been delivered.
      sc.parallelize(Seq(0), 1).setName(Fence).count()
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      log.synchronized {
        while (!log.fenced && System.nanoTime() < deadline) log.wait(10)
        require(log.fenced, "the listener never saw the fence job")
      }
      (out, log)
    } finally sc.removeSparkListener(listener)
  }
}
