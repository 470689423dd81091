package perfbench

import scala.collection.mutable
import scala.util.Random

import repro.core.{Edge, StreamOp, WitnessRecord}

/** A witness stream with the reference the checks need, computed here and
  * never by the program: exact frequencies and each item's witnesses in
  * stream order.
  */
final class WitnessInput(val records: Array[WitnessRecord], val nItems: Long) {
  val witnessesOf: Map[Long, Array[Long]] = {
    val m = mutable.HashMap.empty[Long, mutable.ArrayBuilder.ofLong]
    records.foreach(r => m.getOrElseUpdate(r.item, new mutable.ArrayBuilder.ofLong) += r.witness)
    m.iterator.map { case (k, b) => k -> b.result() }.toMap
  }
  val freq: Map[Long, Int] = witnessesOf.map { case (k, ws) => k -> ws.length }
  val maxFreq: Int = freq.values.max
  /** The item of maximum frequency; the generator makes it unique. */
  val top: Long = freq.maxBy(_._2)._1
  lazy val edges: Array[Edge] = records.map(r => Edge(r.item, r.witness))
  lazy val items: Array[Long] = records.map(_.item)
}

/** An undirected simple graph with its adjacency and maximum degree Δ. */
final class GraphInput(val edges: Array[(Long, Long)], val n: Long) {
  val adjacency: Map[Long, Set[Long]] =
    edges.iterator.flatMap { case (u, v) => Iterator((u, v), (v, u)) }
      .toSeq.groupBy(_._1).map { case (a, es) => a -> es.map(_._2).toSet }
  val maxDegree: Int = adjacency.valuesIterator.map(_.size).max
}

/** A ±1 turnstile stream with the adjacency left after its deletions. */
final class TurnstileInput(val regime: String, val ops: Array[StreamOp],
                           val n: Long, val m: Long, val d: Int) {
  val adjacency: Map[Long, Set[Long]] = {
    val adj = mutable.HashMap.empty[Long, mutable.HashSet[Long]]
    ops.foreach { op =>
      val s = adj.getOrElseUpdate(op.edge.a, mutable.HashSet.empty[Long])
      if (op.delta > 0) s += op.edge.b else s -= op.edge.b
    }
    adj.iterator.collect { case (a, s) if s.nonEmpty => a -> s.toSet }.toMap
  }
  val maxDegree: Int = adjacency.valuesIterator.map(_.size).max
}

/** Seeded input generator of the benchmark. The shapes (frequencies,
  * degrees, sizes) are fixed; the seed only picks ids and stream order, so
  * every seed gives the same amount of work.
  */
object Gen {

  /** Zipf witness stream: the item of rank r occurs ⌊total·r^-alpha / H⌋
    * times; ids are a random permutation of 1..nItems, the records come in
    * random order, and the witness of the record at stream position p is p
    * (a timestamp), so witnesses are distinct across the whole stream.
    */
  def zipfWitness(nItems: Int, total: Int, alpha: Double, seed: Long): WitnessInput = {
    val rng = new Random(seed)
    val weights = Array.tabulate(nItems)(r => 1.0 / math.pow(r + 1.0, alpha))
    val norm = weights.sum
    val ids = rng.shuffle((1L to nItems.toLong).toVector)
    val items = mutable.ArrayBuilder.make[Long]
    var r = 0
    while (r < nItems) {
      val count = math.max(if (r == 0) 1 else 0, (total * weights(r) / norm).toInt)
      var i = 0
      while (i < count) { items += ids(r); i += 1 }
      r += 1
    }
    val order = items.result()
    shuffle(order, rng)
    new WitnessInput(Array.tabulate(order.length)(p => WitnessRecord(order(p), p.toLong)),
      nItems.toLong)
  }

  /** General graph on 1..n with a planted star of `delta` leaves around a
    * random centre, plus `extra` random edges off the centre, in random
    * stream order.
    */
  def plantedStarGraph(n: Int, delta: Int, extra: Int, seed: Long): GraphInput = {
    val rng = new Random(seed)
    val center = rng.nextInt(n).toLong + 1
    val leaves = rng.shuffle((1L to n.toLong).filter(_ != center).toVector).take(delta)
    val edges = mutable.LinkedHashSet.empty[(Long, Long)]
    leaves.foreach(l => edges += ((math.min(center, l), math.max(center, l))))
    var added = 0
    while (added < extra) {
      val u = rng.nextInt(n).toLong + 1
      val v = rng.nextInt(n).toLong + 1
      if (u != v && u != center && v != center && edges.add((math.min(u, v), math.max(u, v))))
        added += 1
    }
    val arr = edges.toArray
    shuffle(arr, rng)
    new GraphInput(arr, n.toLong)
  }

  /** Insertion-deletion stream over A = 1..n, B = 1..m. The final graph has
    * `heavy` random A-vertices of degree d and degree `bg` everywhere else;
    * a further ⌊chaff·|E|⌋ edges not in it are inserted and later deleted.
    * Every op sits at a random position, each deletion after its insertion.
    */
  def turnstile(regime: String, n: Int, m: Int, d: Int, heavy: Int, bg: Int,
                chaff: Double, seed: Long): TurnstileInput = {
    val rng = new Random(seed)
    val heavyIds = rng.shuffle((1L to n.toLong).toVector).take(heavy).toSet
    val finalEdges = mutable.LinkedHashSet.empty[Edge]
    var a = 1L
    while (a <= n) {
      val deg = if (heavyIds.contains(a)) d else bg
      var k = 0
      while (k < deg) { if (finalEdges.add(Edge(a, rng.nextInt(m).toLong + 1))) k += 1 }
      a += 1
    }
    val nChaff = (finalEdges.size * chaff).toInt
    val chaffEdges = mutable.LinkedHashSet.empty[Edge]
    while (chaffEdges.size < nChaff) {
      val e = Edge(rng.nextInt(n).toLong + 1, rng.nextInt(m).toLong + 1)
      if (!finalEdges.contains(e)) chaffEdges += e
    }
    val timed = mutable.ArrayBuffer.empty[(Double, StreamOp)]
    finalEdges.foreach(e => timed += ((rng.nextDouble(), StreamOp(e, 1))))
    chaffEdges.foreach { e =>
      val t1 = rng.nextDouble(); val t2 = rng.nextDouble()
      timed += ((math.min(t1, t2), StreamOp(e, 1)))
      timed += ((math.max(t1, t2), StreamOp(e, -1)))
    }
    new TurnstileInput(regime, timed.sortBy(_._1).map(_._2).toArray, n.toLong, m.toLong, d)
  }

  private def shuffle[T](a: Array[T], rng: Random): Unit = {
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
  }
}
