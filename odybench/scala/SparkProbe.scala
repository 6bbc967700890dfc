package odybench

import org.apache.spark.scheduler._

/** Spark-side counters for one `DistributedSearch.run` pass, summed over
  * its tasks. Times are executor-reported; in local mode the GC time is the
  * shared JVM's and is counted once per task that saw it.
  */
final case class PassCounters(stages: Long, tasks: Long,
                              executorRunMs: Long, executorCpuNs: Long, gcMs: Long,
                              deserMs: Long, resultBytes: Long, shuffleWriteBytes: Long) {
  def -(o: PassCounters): PassCounters =
    PassCounters(stages - o.stages, tasks - o.tasks,
                 executorRunMs - o.executorRunMs, executorCpuNs - o.executorCpuNs,
                 gcMs - o.gcMs, deserMs - o.deserMs, resultBytes - o.resultBytes,
                 shuffleWriteBytes - o.shuffleWriteBytes)

  def attrs: Seq[(String, Double)] = Seq(
    "stages" -> stages.toDouble, "tasks" -> tasks.toDouble,
    "executor_run_s" -> executorRunMs / 1e3, "executor_cpu_s" -> executorCpuNs / 1e9,
    "gc_s" -> gcMs / 1e3, "deser_s" -> deserMs / 1e3,
    "result_mb" -> resultBytes / 1e6, "shuffle_write_mb" -> shuffleWriteBytes / 1e6)
}

/** A listener registered by the benchmark (the pipeline is untouched).
  * Events arrive asynchronously; a pass is complete once the listener has
  * seen the end of the SQL execution that wraps its `collect`, which Spark
  * posts after every job, stage and task event of that execution.
  */
final class SparkProbe extends SparkListener {
  private var c = PassCounters(0, 0, 0, 0, 0, 0, 0, 0)
  private var sqlEnds = 0L

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    synchronized { c = c.copy(stages = c.stages + 1) }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    c = if (m == null) c.copy(tasks = c.tasks + 1)
        else PassCounters(c.stages, c.tasks + 1,
                          c.executorRunMs + m.executorRunTime, c.executorCpuNs + m.executorCpuTime,
                          c.gcMs + m.jvmGCTime, c.deserMs + m.executorDeserializeTime,
                          c.resultBytes + m.resultSize,
                          c.shuffleWriteBytes + m.shuffleWriteMetrics.bytesWritten)
  }
  override def onOtherEvent(e: SparkListenerEvent): Unit =
    if (e.getClass.getSimpleName == "SparkListenerSQLExecutionEnd") synchronized {
      sqlEnds += 1
      notifyAll()
    }

  /** Run one pass (one SQL execution) and return its counters. */
  def measure[T](body: => T): (T, PassCounters) = {
    val (before, ends0) = synchronized((c, sqlEnds))
    val out = body
    synchronized {
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (sqlEnds == ends0 && System.nanoTime() < deadline) wait(10)
      require(sqlEnds > ends0, "listener never saw the pass's SQL execution end")
      (out, c - before)
    }
  }
}
