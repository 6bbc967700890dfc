package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments

/** spark-submit entry point: prints the tables of one registered exhibit
  * ([[Experiments.exhibits]]).
  * Usage: spark-submit --class repro.jobs.Exhibit <jar> <name> [nSeries] [nQueries]
  */
object Exhibit {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    val run = Experiments.exhibit(name)
    val default = Experiments.Scale()
    val scale = Experiments.Scale(n = args.lift(1).fold(default.n)(_.toInt),
                                  nQueries = args.lift(2).fold(default.nQueries)(_.toInt))
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try run(spark, scale).foreach(t => println(t.render))
    finally spark.stop()
  }
}
