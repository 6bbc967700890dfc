package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

class ExperimentsSpec extends AnyFunSuite {

  private val names = Seq(
    "Table1Datasets", "Fig04Prediction", "Fig06Threshold", "Fig10Scheduling",
    "Fig11QueryScalability", "Fig12DataSize", "Fig13Throughput", "Fig14IndexSize",
    "Fig15Replication", "Fig16RealDatasets", "Fig17IndexScalability", "Fig17dCompetitors",
    "Fig18Knn", "Fig19Dtw")

  test("the exhibit registry names every evaluation exhibit, in paper order") {
    assert(Experiments.exhibits.keys.toSeq == names)
    names.foreach(n => assert(Experiments.exhibit(n) eq Experiments.exhibits(n)))
  }

  test("an unknown exhibit name fails with the list of known names") {
    val e = intercept[IllegalArgumentException](Experiments.exhibit("Fig99Nothing"))
    assert(e.getMessage.contains("'Fig99Nothing'"))
    assert(e.getMessage.endsWith(names.mkString(", ")))
  }
}
