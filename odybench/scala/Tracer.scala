package odybench

import scala.collection.mutable

/** One closed span: `trace` groups the spans of one traced iteration,
  * `parent` is the enclosing span's id (-1 at the top), times are
  * `System.nanoTime` readings, and `attrs` holds counts recorded at the
  * same boundary (series built, ops counted, bytes shuffled).
  */
final case class Span(trace: Int, id: Int, parent: Int, name: String,
                      startNs: Long, endNs: Long, attrs: Map[String, Double])

/** In-memory span recorder for the benchmark's own calls into each layer.
  * Single-threaded: the traced run drives every layer from one thread.
  */
final class Tracer {
  private final class Open(val id: Int, val parent: Int, val name: String, val startNs: Long) {
    val attrs = mutable.LinkedHashMap.empty[String, Double]
  }

  private val closed = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Open] = Nil
  private var nextId = 0
  private var trace = 0

  /** Start a new trace id; spans recorded afterwards belong to it. */
  def newTrace(id: Int): Unit = { require(stack.isEmpty, "trace switched inside a span"); trace = id }

  def span[T](name: String)(body: => T): T = {
    val open = new Open(nextId, stack.headOption.map(_.id).getOrElse(-1), name, System.nanoTime())
    nextId += 1
    stack = open :: stack
    try body
    finally {
      val end = System.nanoTime()
      stack = stack.tail
      closed += Span(trace, open.id, open.parent, name, open.startNs, end, open.attrs.toMap)
    }
  }

  /** Record a count on the innermost open span. */
  def tag(key: String, value: Double): Unit = stack.head.attrs(key) = value

  def spans: Seq[Span] = closed.toSeq
}
