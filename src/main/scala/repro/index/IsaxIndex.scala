package repro.index

import java.util.Arrays
import scala.collection.mutable
import repro.core.{Cost, ISax, Paa}

/** Index build configuration.
  *
  * @param w            PAA / iSAX segments
  * @param leafCapacity max entries per leaf before a cardinality-promotion split
  */
final case class IndexConfig(w: Int = 8, leafCapacity: Int = 64) {
  require(w >= 2 && w <= 16, s"w out of range: $w")
  require(leafCapacity >= 2, s"leafCapacity too small: $leafCapacity")
}

/** iSAX tree node. A node is a leaf while `splitSeg < 0`; splitting
  * promotes one segment's cardinality by one bit and redistributes the
  * entries into the two children (iSAX 2.0-style, round-robin over the
  * segments with the fewest bits).
  *
  * A built leaf owns the positions `[start, start + size)` of its index's
  * `ids` / `words` / `series` arrays; an inner node has `size == 0`.
  */
final class TreeNode(val word: Array[Int], val bits: Array[Int]) {
  var start: Int = 0
  var size: Int = 0
  var splitSeg: Int = -1
  var child0: TreeNode = _
  var child1: TreeNode = _
  def isLeaf: Boolean = splitSeg < 0

  /** Build only: arrival positions of the leaf's series, `size` of them used. */
  private[index] var pos: Array[Int] = new Array[Int](4)

  private[index] def add(p: Int): Unit = {
    if (size == pos.length) pos = Arrays.copyOf(pos, size * 2)
    pos(size) = p
    size += 1
  }
}

/** Per-chunk index build statistics (feeds Fig. 14 / Fig. 17 benches). */
final case class BuildStats(nSeries: Long, bufferOps: Long, treeOps: Long,
                            indexBytes: Long, nLeaves: Int, nInner: Int, nRoots: Int)

/** In-memory iSAX index over one data chunk (the per-node index of §3.2.1).
  *
  * Construction mirrors the single-node parallel indexes of §2: compute
  * every series' summary (the "summarization buffer" pass — here the
  * grouping of entries by first-bit root word), then insert each buffer's
  * entries into its own root subtree. `rootsSorted` exposes the subtrees
  * in root-word order; the searcher groups consecutive subtrees into
  * RS-batches.
  *
  * The series live outside the tree, MESSI-style, in three chunk-wide
  * arrays in leaf order (roots in `rootsSorted` order, `child0` before
  * `child1`): `ids`, `words` (w full-cardinality symbol bytes per series)
  * and `series` (references to the raw rows, not copies). No PAA is
  * stored: entry-level lower bounds come from the word.
  */
final class IsaxIndex private (val config: IndexConfig, val length: Int) {
  val segSizes: Array[Int] = Paa.segmentSizes(length, config.w)
  private val rootMap = mutable.HashMap.empty[Int, TreeNode]
  private var _nSeries = 0
  private var _treeOps = 0L
  private var _rootsSorted: Array[(Int, TreeNode)] = _
  // in arrival order while building; `finish` rewrites them in leaf order
  private var _ids = new Array[Long](64)
  private var _words = new Array[Byte](64 * config.w)
  private var _series = new Array[Array[Double]](64)

  /** Root subtrees ordered by packed first-bit word (stable RS-batch ids),
    * sorted once when `build` finishes. Callers must not mutate it.
    */
  def rootsSorted: Array[(Int, TreeNode)] = _rootsSorted

  /** Series ids in leaf order. Callers must not mutate it. */
  def ids: Array[Long] = _ids

  /** Full-cardinality words in leaf order, `config.w` bytes per series
    * (read a symbol as `words(pos * w + seg) & 0xFF`). Callers must not mutate it.
    */
  def words: Array[Byte] = _words

  /** Raw series in leaf order. Callers must not mutate it. */
  def series: Array[Array[Double]] = _series

  /** Summarization-buffer histogram: packed root word -> series count. */
  def bufferCounts: Map[Int, Int] = rootMap.view.mapValues(countEntries).toMap

  def nSeries: Long = _nSeries

  private def countEntries(n: TreeNode): Int =
    if (n.isLeaf) n.size else countEntries(n.child0) + countEntries(n.child1)

  @inline private def symbol(p: Int, seg: Int): Int = _words(p * config.w + seg) & 0xFF

  /** Stores a series and its word at the next arrival position, which it returns. */
  private def append(id: Long, values: Array[Double], paa: Array[Double]): Int = {
    val p = _nSeries
    if (p == _ids.length) {
      _ids = Arrays.copyOf(_ids, p * 2)
      _words = Arrays.copyOf(_words, p * 2 * config.w)
      _series = Arrays.copyOf(_series, p * 2)
    }
    _ids(p) = id
    _series(p) = values
    var i = 0
    while (i < config.w) { _words(p * config.w + i) = ISax.symbol(paa(i), ISax.MaxBits).toByte; i += 1 }
    _nSeries += 1
    p
  }

  /** Routes the series at arrival position `p` down its root subtree to a leaf. */
  private def insert(p: Int): Unit = {
    val root = rootMap.getOrElseUpdate(ISax.rootKey(config.w, symbol(p, _)),
      new TreeNode(Array.tabulate(config.w)(i => ISax.firstBit(symbol(p, i))), Array.fill(config.w)(1)))
    var node = root
    _treeOps += 1
    while (!node.isLeaf) {
      val b   = node.bits(node.splitSeg) // child bit depth already = b after split
      val bit = (symbol(p, node.splitSeg) >>> (ISax.MaxBits - b - 1)) & 1
      node = if (bit == 0) node.child0 else node.child1
      _treeOps += 1
    }
    node.add(p)
    if (node.size > config.leafCapacity) split(node)
  }

  /** Split `node` by promoting the segment with the fewest bits (lowest
    * index on ties); gives up (oversized leaf) when every segment is at
    * max cardinality. Children that still overflow are split recursively.
    */
  private def split(node: TreeNode): Unit = {
    var seg = -1
    var best = ISax.MaxBits
    var i = 0
    while (i < config.w) {
      if (node.bits(i) < best) { best = node.bits(i); seg = i }
      i += 1
    }
    if (seg < 0 || node.bits(seg) >= ISax.MaxBits) return // all maxed: oversized leaf
    val nb = node.bits(seg) + 1
    def childNode(bit: Int): TreeNode = {
      val w2 = node.word.clone(); val b2 = node.bits.clone()
      w2(seg) = node.word(seg) * 2 + bit
      b2(seg) = nb
      new TreeNode(w2, b2)
    }
    val c0 = childNode(0); val c1 = childNode(1)
    val moved = node.pos
    val nMoved = node.size
    node.pos = null
    node.size = 0
    node.splitSeg = seg
    node.child0 = c0; node.child1 = c1
    var j = 0
    while (j < nMoved) {
      val p = moved(j)
      val bit = (symbol(p, seg) >>> (ISax.MaxBits - nb)) & 1
      (if (bit == 0) c0 else c1).add(p)
      _treeOps += 1
      j += 1
    }
    if (c0.size > config.leafCapacity) split(c0)
    if (c1.size > config.leafCapacity) split(c1)
  }

  /** Sort the roots and rewrite the arrays in leaf order; each leaf keeps
    * only its `[start, start + size)` range.
    */
  private def finish(): Unit = {
    _rootsSorted = rootMap.toArray.sortBy(_._1)
    val w = config.w
    val ids = new Array[Long](_nSeries)
    val words = new Array[Byte](_nSeries * w)
    val series = new Array[Array[Double]](_nSeries)
    var next = 0
    def layOut(n: TreeNode): Unit =
      if (!n.isLeaf) { layOut(n.child0); layOut(n.child1) }
      else {
        n.start = next
        var j = 0
        while (j < n.size) {
          val p = n.pos(j)
          ids(next) = _ids(p)
          System.arraycopy(_words, p * w, words, next * w, w)
          series(next) = _series(p)
          next += 1
          j += 1
        }
        n.pos = null
      }
    _rootsSorted.foreach { case (_, root) => layOut(root) }
    _ids = ids; _words = words; _series = series
  }

  def buildStats: BuildStats = {
    var leaves = 0; var inner = 0; var entryCount = 0L
    def walk(n: TreeNode): Unit =
      if (n.isLeaf) { leaves += 1; entryCount += n.size }
      else { inner += 1; walk(n.child0); walk(n.child1) }
    rootMap.values.foreach(walk)
    // Index payload: per entry id(8) + data pointer(8) + packed word (w
    // bytes); per node word/bits/pointers ~ 64B. Raw data is NOT index.
    val bytes = entryCount * (16L + config.w) + (leaves + inner) * 64L
    BuildStats(_nSeries, bufferOps = _nSeries.toLong * length, treeOps = _treeOps,
               indexBytes = bytes, nLeaves = leaves, nInner = inner, nRoots = rootMap.size)
  }
}

object IsaxIndex {

  /** Summarize + index a chunk. `cost` is charged one op per point during
    * summarization and one per tree-node visit during insertion. A series
    * with a NaN or ±∞ value (any non-finite PAA mean) is rejected.
    */
  def build(seriesIt: Iterator[(Long, Array[Double])], config: IndexConfig,
            cost: Cost = new Cost): IsaxIndex = {
    var idx: IsaxIndex = null
    seriesIt.foreach { case (id, values) =>
      if (idx == null) idx = new IsaxIndex(config, values.length)
      require(values.length == idx.length, s"ragged series length for id=$id")
      val paa = Paa.of(values, config.w)
      requireFinite(paa, s"series id=$id")
      cost.add(values.length)
      idx.insert(idx.append(id, values, paa))
    }
    require(idx != null, "cannot build an index over an empty chunk")
    cost.add(idx._treeOps)
    idx.finish()
    idx
  }

  /** Rejects a PAA with a non-finite mean: a NaN or ±∞ value always makes
    * its segment mean non-finite, so this costs w checks, not one per point.
    */
  private[index] def requireFinite(paa: Array[Double], what: String): Unit = {
    var i = 0
    while (i < paa.length) {
      require(java.lang.Double.isFinite(paa(i)), s"$what has a non-finite value (PAA segment $i = ${paa(i)})")
      i += 1
    }
  }
}
