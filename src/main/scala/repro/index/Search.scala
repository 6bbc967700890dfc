package repro.index

import scala.collection.mutable
import repro.core.{Cost, Distances, ISax}

/** Distance mode: whole-matching Euclidean, or DTW with a Sakoe–Chiba
  * band of radius `radius` points (LB_Keogh + envelope-PAA lower bounds).
  */
sealed trait Mode extends Serializable
case object Euclidean extends Mode
final case class Dtw(radius: Int) extends Mode { require(radius >= 0) }

/** Search knobs (§3.2.1).
  *
  * @param nsb       number of RS-batches the root subtrees are grouped into
  *                  (paper: best when equal to the worker-thread count)
  * @param threshold TH — max leaves per priority queue; when the active PQ
  *                  of an RS-batch reaches TH it is closed and a fresh one
  *                  is started (Int.MaxValue = uncapped)
  * @param k         number of nearest neighbours
  */
final case class SearchParams(nsb: Int = 16, threshold: Int = Int.MaxValue,
                              mode: Mode = Euclidean, k: Int = 1) {
  require(nsb >= 1 && k >= 1 && threshold >= 1)
}

/** One processed priority queue: which RS-batch built it, the priority of
  * its top element, leaves it held, and the ops spent processing it.
  */
final case class PqStat(batchId: Int, topLb: Double, leaves: Int, procOps: Long)

/** Full per-(chunk, query) execution record. `batchOps(b)` is the tree
  * traversal + PQ construction cost of RS-batch b — exactly what a stealing
  * node pays to *rebuild* that batch's queues from its own replica.
  */
final case class QueryRun(
    topK: List[(Double, Long)],   // ascending (dist, id), local answer(s)
    approxBsf: Double,            // local initial BSF (k-th best of approx leaf)
    approxOps: Long,
    batchOps: Array[Long],
    pqStats: Array[PqStat],       // in processed (sorted) order
    totalOps: Long,
    nLeavesTouched: Long,
    nRealDists: Long) {
  def bestDist: Double = if (topK.isEmpty) Double.PositiveInfinity else topK.head._1
  def bestId: Long = if (topK.isEmpty) -1L else topK.head._2
}

/** Precomputed query context shared by all phases. A query with a NaN or
  * ±∞ value (any non-finite PAA mean) is rejected.
  */
final class QueryCtx(val values: Array[Double], val mode: Mode, w: Int,
                     segSizes: Array[Int]) {
  val paa: Array[Double] = repro.core.Paa.of(values, w)
  IsaxIndex.requireFinite(paa, "query")
  val sax: Array[Int] = ISax.word(paa)
  // DTW-only: LB_Keogh envelope and its PAAs
  val (envUp, envLo): (Array[Double], Array[Double]) = mode match {
    case Dtw(r)    => Distances.envelope(values, r)
    case Euclidean => (null, null)
  }
  val (envUpPaa, envLoPaa): (Array[Double], Array[Double]) = mode match {
    case Dtw(_)    => (repro.core.Paa.of(envUp, w), repro.core.Paa.of(envLo, w))
    case Euclidean => (null, null)
  }

  /** Lower bound of the real distance for an index node's word region. */
  def nodeLb(node: TreeNode): Double = mode match {
    case Euclidean => ISax.mindistPaaToWord(paa, segSizes, node.word, node.bits)
    case Dtw(_)    => ISax.mindistEnvToWord(envUpPaa, envLoPaa, segSizes, node.word, node.bits)
  }

  /** Per-segment MINDIST terms at full cardinality: entry `seg * 256 + sym`
    * is exactly the `segSizes(seg) * d * d` that `ISax.mindistPaaToWord`
    * (or `mindistEnvToWord` for DTW) adds for symbol `sym` at `MaxBits`.
    * Built on the first entry-level bound, so approximate-only use skips it.
    */
  private lazy val symTable: Array[Double] = {
    val card = 1 << ISax.MaxBits
    val bp = ISax.breakpoints(ISax.MaxBits) // regionLo(sym) = bp(sym - 1), regionHi(sym) = bp(sym)
    val t = new Array[Double](w * card)
    var seg = 0
    while (seg < w) {
      // the query's value range in this segment: a point for ED, the envelope for DTW
      val (up, lo) = mode match {
        case Euclidean => (paa(seg), paa(seg))
        case Dtw(_)    => (envUpPaa(seg), envLoPaa(seg))
      }
      val size = segSizes(seg)
      var sym = 0
      while (sym < card) {
        val rlo = if (sym == 0) Double.NegativeInfinity else bp(sym - 1)
        val rhi = if (sym == card - 1) Double.PositiveInfinity else bp(sym)
        val d = if (lo > rhi) lo - rhi else if (up < rlo) rlo - up else 0.0
        t(seg * card + sym) = size * d * d
        sym += 1
      }
      seg += 1
    }
    t
  }

  /** Lower bound of the real distance for the indexed series at `pos` of
    * `words` (w full-cardinality symbols per series). Sums the symbol
    * table in segment order, so it is bit-identical to the MINDIST of the
    * word at full cardinality.
    */
  def entryLb(words: Array[Byte], pos: Int): Double = {
    val t = symTable
    val off = pos * w
    var acc = 0.0
    var seg = 0
    while (seg < w) {
      acc += t((seg << ISax.MaxBits) + (words(off + seg) & 0xFF))
      seg += 1
    }
    math.sqrt(acc)
  }

  /** Real distance to `series`, early-abandoning against `bound`. For DTW
    * a LB_Keogh cascade runs first (itself a DTW lower bound).
    */
  def realDist(series: Array[Double], bound: Double, cost: Cost): Double = mode match {
    case Euclidean => Distances.edEarlyAbandon(values, series, bound, cost)
    case Dtw(r) =>
      val lbk = Distances.lbKeogh(series, envUp, envLo, bound, cost)
      if (lbk >= bound) Double.PositiveInfinity
      else Distances.dtwBand(values, series, r, bound, cost)
  }
}

/** Bounded max-heap over (dist, id): keeps the k smallest distances seen.
  * Ids are deduplicated — the approximate phase and the PQ phase may both
  * visit the same leaf, and a series must count once in a k-NN answer.
  */
final class KnnHeap(val k: Int) {
  private val heap = mutable.PriorityQueue.empty[(Double, Long)](Ordering.by(_._1))
  private val ids = mutable.Set.empty[Long]
  def bound: Double = if (heap.size < k) Double.PositiveInfinity else heap.head._1
  def offer(dist: Double, id: Long): Boolean =
    if (dist < bound && !ids.contains(id)) {
      heap.enqueue((dist, id))
      ids += id
      if (heap.size > k) ids -= heap.dequeue()._2
      true
    } else false
  def toSortedList: List[(Double, Long)] = heap.toList.sortBy(_._1)
}

object Search {

  /** Approximate search: descend to the leaf matching the query word and
    * scan it — gives the initial BSF (§2, Fig. 2). Returns the heap of the
    * k best leaf candidates (real distances to actual series).
    */
  def approx(index: IsaxIndex, ctx: QueryCtx, cost: Cost, k: Int = 1): KnnHeap = {
    val heap = new KnnHeap(k)
    val roots = index.rootsSorted
    if (roots.isEmpty) return heap
    val r = rootOf(roots, ISax.rootKey(ctx.sax))
    val root = if (r >= 0) roots(r)._2 else {
      // no matching subtree: take the root with the smallest lower bound
      cost.add(roots.length.toLong * ctx.paa.length)
      roots.minBy { case (_, n) => ctx.nodeLb(n) }._2
    }
    var node = root
    while (!node.isLeaf) {
      cost.add(1)
      val b   = node.bits(node.splitSeg)
      val bit = (ctx.sax(node.splitSeg) >>> (ISax.MaxBits - b - 1)) & 1
      val next = if (bit == 0) node.child0 else node.child1
      // an empty sibling can exist right after a split; fall to the other
      node = if (next.isLeaf && next.size == 0) (if (bit == 0) node.child1 else node.child0)
             else next
      if (node.isLeaf && node.size == 0) return heap
    }
    val ids = index.ids
    val series = index.series
    var i = node.start
    while (i < node.start + node.size) {
      heap.offer(ctx.realDist(series(i), heap.bound, cost), ids(i))
      i += 1
    }
    heap
  }

  /** Index of the root with packed word `key` in the key-sorted `roots`,
    * or -1 when there is none.
    */
  private def rootOf(roots: Array[(Int, TreeNode)], key: Int): Int = {
    var lo = 0
    var hi = roots.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val k = roots(mid)._1
      if (k < key) lo = mid + 1
      else if (k > key) hi = mid - 1
      else return mid
    }
    -1
  }

  /** Exact search (§3.2.1): approximate phase for the initial BSF, tree
    * traversal per RS-batch populating size-thresholded priority queues,
    * PQ array sorted by top priority, then in-order PQ processing with
    * per-entry lower-bound filtering and early-abandoning real distances.
    *
    * @param startBound  an externally shared BSF (k-th best); PositiveInfinity
    *                    when the node has received nothing. The local answer
    *                    list only ever contains local series, so merging
    *                    per-chunk results stays exact under any sharing.
    * @param thresholdOf when set, overrides `params.threshold` with a TH
    *                    derived from the query's local initial BSF (the
    *                    sigmoid model of [[ThresholdModel]])
    */
  def exact(index: IsaxIndex, query: Array[Double], params: SearchParams,
            startBound: Double = Double.PositiveInfinity,
            thresholdOf: Double => Int = null): QueryRun = {
    val cost = new Cost
    val ctx = new QueryCtx(query, params.mode, index.config.w, index.segSizes)

    val heap = approx(index, ctx, cost, params.k)
    val approxBsf = heap.bound
    val approxOps = cost.ops
    var bound = math.min(startBound, heap.bound)
    val th = if (thresholdOf == null) params.threshold
             else math.max(2, thresholdOf(approxBsf))

    val roots = index.rootsSorted
    val nsb = math.min(params.nsb, roots.length)
    val batchOps = new Array[Long](nsb)
    // (batchId, leaves-with-lb, topLb) per priority queue
    val pqs = mutable.ArrayBuffer.empty[(Int, mutable.ArrayBuffer[(TreeNode, Double)])]
    var leavesTouched = 0L
    val stack = mutable.ArrayDeque.empty[TreeNode] // empty again after every root

    // ---- tree traversal phase: prune with the initial bound ----
    var b = 0
    while (b < nsb) {
      val before = cost.ops
      val lo = b * roots.length / nsb
      val hi = (b + 1) * roots.length / nsb
      var active = mutable.ArrayBuffer.empty[(TreeNode, Double)]
      def flush(): Unit = { if (active.nonEmpty) { pqs += ((b, active)); active = mutable.ArrayBuffer.empty } }
      var r = lo
      while (r < hi) {
        stack.append(roots(r)._2)
        while (stack.nonEmpty) {
          val node = stack.removeLast()
          cost.add(ctx.paa.length)
          val lb = ctx.nodeLb(node)
          if (lb < bound) {
            if (node.isLeaf) {
              if (node.size > 0) {
                active += ((node, lb))
                leavesTouched += 1
                if (active.length >= th) flush()
              }
            } else { stack.append(node.child0); stack.append(node.child1) }
          }
        }
        r += 1
      }
      flush()
      batchOps(b) = cost.ops - before
      b += 1
    }

    // ---- PQ preprocessing: sort queue array by top priority ----
    val ordered = pqs.map { case (bid, leaves) =>
      val sorted = leaves.sortBy(_._2)
      (bid, sorted, sorted.head._2)
    }.sortBy(_._3).toArray

    // ---- PQ processing phase ----
    val ids = index.ids
    val words = index.words
    val series = index.series
    var nReal = 0L
    val stats = new Array[PqStat](ordered.length)
    var p = 0
    while (p < ordered.length) {
      val (bid, leaves, topLb) = ordered(p)
      val before = cost.ops
      var li = 0
      var abandoned = false
      while (li < leaves.length && !abandoned) {
        val (leaf, lb) = leaves(li)
        if (lb >= bound) abandoned = true // queue is lb-sorted: the rest prune too
        else {
          val end = leaf.start + leaf.size
          var i = leaf.start
          while (i < end) {
            cost.add(ctx.paa.length)
            if (ctx.entryLb(words, i) < bound) {
              val d = ctx.realDist(series(i), bound, cost)
              nReal += 1
              if (heap.offer(d, ids(i))) bound = math.min(bound, heap.bound)
            }
            i += 1
          }
        }
        li += 1
      }
      stats(p) = PqStat(bid, topLb, leaves.length, cost.ops - before)
      p += 1
    }

    QueryRun(heap.toSortedList, approxBsf, approxOps, batchOps, stats,
             totalOps = cost.ops, nLeavesTouched = leavesTouched, nRealDists = nReal)
  }

  /** Brute-force reference (tests): exact k-NN by scanning everything. */
  def bruteForce(series: Iterator[(Long, Array[Double])], query: Array[Double],
                 mode: Mode = Euclidean, k: Int = 1): List[(Double, Long)] = {
    val cost = new Cost
    val heap = new KnnHeap(k)
    series.foreach { case (id, v) =>
      val d = mode match {
        case Euclidean => Distances.ed(query, v)
        case Dtw(r)    => Distances.dtwBand(query, v, r, Double.PositiveInfinity, cost)
      }
      heap.offer(d, id)
    }
    heap.toSortedList
  }
}
