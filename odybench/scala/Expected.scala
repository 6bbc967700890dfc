package odybench

import java.util.concurrent.{Callable, Executors}
import scala.reflect.ClassTag
import repro.core.SeriesGen
import repro.core.SeriesGen.DatasetSpec
import repro.index.{Dtw, Euclidean, Mode, Search}

/** Expected answers, computed outside every timed region by this file's own
  * exact k-NN scan, which shares no code with the program's kernels, and
  * cross-checked against the program's `Search.bruteForce` on a sample of
  * queries.
  */
object Expected {
  type Answer = List[(Double, Long)]

  /** `f(0 until n)` on a fixed pool of `threads` workers, shut down after. */
  def parTabulate[A: ClassTag](n: Int, threads: Int)(f: Int => A): Array[A] = {
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val step = math.max(1, (n + threads * 8 - 1) / (threads * 8))
      val parts = (0 until n by step).map { lo =>
        pool.submit(new Callable[Array[A]] {
          def call(): Array[A] = Array.tabulate(math.min(step, n - lo))(i => f(lo + i))
        })
      }
      parts.flatMap(_.get()).toArray
    } finally {
      pool.shutdownNow()
      pool.awaitTermination(1, java.util.concurrent.TimeUnit.MINUTES)
    }
  }

  def collection(spec: DatasetSpec, threads: Int): Array[Array[Double]] =
    parTabulate(spec.n, threads)(id => SeriesGen.series(spec, id.toLong))

  def answers(series: Array[Array[Double]], queries: Array[Array[Double]], mode: Mode, k: Int,
              threads: Int): Array[Answer] =
    parTabulate(queries.length, threads)(q => reference(series, queries(q), mode, k))

  def programBruteForce(series: Array[Array[Double]], query: Array[Double], mode: Mode, k: Int): Answer =
    Search.bruteForce(series.iterator.zipWithIndex.map { case (v, id) => (id.toLong, v) }, query, mode, k)

  /** Exact k-NN by scanning ids in order; a candidate enters only when
    * strictly closer than the current k-th best, so ties keep the lower id.
    * DTW candidates are first pruned by LB_Keogh, and both distances stop
    * early once they exceed the k-th best.
    */
  def reference(series: Array[Array[Double]], query: Array[Double], mode: Mode, k: Int): Answer = {
    var best = List.empty[(Double, Long)]
    def bound = if (best.length < k) Double.PositiveInfinity else best.last._1
    val env = mode match {
      case Dtw(r)    => Some(envelope(query, r))
      case Euclidean => None
    }
    var id = 0
    while (id < series.length) {
      val b = bound
      val d = mode match {
        case Euclidean => ed(query, series(id), b)
        case Dtw(r)    => if (lbKeogh(series(id), env.get) >= b) Double.PositiveInfinity
                          else dtw(query, series(id), r, b)
      }
      if (d < b) {
        val (lo, hi) = best.span(_._1 <= d)
        best = (lo ++ ((d, id.toLong) :: hi)).take(k)
      }
      id += 1
    }
    best
  }

  private def ed(a: Array[Double], b: Array[Double], bound: Double): Double = {
    val b2 = bound * bound
    var acc = 0.0
    var i = 0
    while (i < a.length && acc <= b2) { val d = a(i) - b(i); acc += d * d; i += 1 }
    if (acc > b2) Double.PositiveInfinity else math.sqrt(acc)
  }

  private def envelope(q: Array[Double], r: Int): (Array[Double], Array[Double]) = {
    val lo = q.indices.map(i => q.slice(math.max(0, i - r), i + r + 1).min).toArray
    val up = q.indices.map(i => q.slice(math.max(0, i - r), i + r + 1).max).toArray
    (up, lo)
  }

  private def lbKeogh(s: Array[Double], env: (Array[Double], Array[Double])): Double = {
    val (up, lo) = env
    var acc = 0.0
    var i = 0
    while (i < s.length) {
      val d = if (s(i) > up(i)) s(i) - up(i) else if (s(i) < lo(i)) lo(i) - s(i) else 0.0
      acc += d * d
      i += 1
    }
    math.sqrt(acc)
  }

  /** Sakoe-Chiba banded DTW over squared differences; infinite once a
    * whole row exceeds `bound` squared.
    */
  private def dtw(a: Array[Double], b: Array[Double], r: Int, bound: Double): Double = {
    val n = a.length
    val inf = Double.PositiveInfinity
    val b2 = bound * bound
    // rows(i % 2)(j + 1) holds cell (i, j); column 0 is the -1 border
    val rows = Array.fill(2, n + 1)(inf)
    for (i <- 0 until n) {
      val row = rows(i % 2); val up = rows((i + 1) % 2)
      java.util.Arrays.fill(row, inf)
      var rowMin = inf
      for (j <- math.max(0, i - r) to math.min(n - 1, i + r)) {
        val d = a(i) - b(j)
        val prev = if (i == 0 && j == 0) 0.0
                   else if (i == 0) row(j)
                   else math.min(row(j), math.min(up(j + 1), up(j)))
        row(j + 1) = prev + d * d
        rowMin = math.min(rowMin, row(j + 1))
      }
      if (rowMin > b2) return inf
    }
    math.sqrt(rows((n - 1) % 2)(n))
  }

  /** Same ids in the same order, distances equal to 1e-9 relative. */
  def same(got: Answer, want: Answer): Boolean =
    got.length == want.length && got.zip(want).forall { case ((dg, ig), (dw, iw)) =>
      ig == iw && math.abs(dg - dw) <= 1e-9 * math.max(1.0, math.abs(dw))
    }

  def matches(answers: Map[Int, Answer], expected: Array[Answer]): Boolean =
    answers.size == expected.length &&
      expected.indices.forall(q => same(answers.getOrElse(q, Nil), expected(q)))
}
