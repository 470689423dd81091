package perfbench

import repro.core.Neighborhood

/** Checks of the program's reports against the benchmark's own reference.
  * Each returns None when the report passes and Some(reason) when it fails.
  */
object Check {

  private def distinct(xs: Seq[Long]): Boolean = xs.distinct.size == xs.size

  /** Algorithm 1's collection rule, which Algorithm 2 and its Spark builds
    * share: run i buffers the occurrences d1(i) .. d1(i)+d2-1 of an item, in
    * stream order, with d1(i) = max(1, ⌊i·d/c⌋) and d2 = ⌊d/c⌋. A report must
    * hold exactly the d2 distinct witnesses of one such window.
    */
  def witnessReport(report: Option[(Long, Seq[Long])], in: WitnessInput,
                    d: Int, c: Int): Option[String] = report match {
    case None => Some("no report, though some item occurs d times")
    case Some((item, ws)) =>
      val d2 = math.max(1, d / c)
      val own = in.witnessesOf.getOrElse(item, Array.emptyLongArray)
      val ownSet = own.toSet
      val windows = (0 until c).map(i => math.max(1, (i.toLong * d / c).toInt))
        .filter(d1 => d1 + d2 - 1 <= own.length)
        .map(d1 => own.slice(d1 - 1, d1 - 1 + d2).toSet)
      if (ws.size != d2) Some(s"item $item: ${ws.size} witnesses, want $d2")
      else if (!distinct(ws)) Some(s"item $item: repeated witness")
      else if (!ws.forall(ownSet.contains)) Some(s"item $item: witness of another item")
      else if (!windows.contains(ws.toSet)) Some(s"item $item: witnesses outside every collection window")
      else None
  }

  /** SpaceSaving: the top candidate is the true top item and its estimate
    * f̂ satisfies f̂ - err ≤ f ≤ f̂ with err ≤ N/k.
    */
  def spaceSaving(top: Option[Long], estimate: Long, error: Long, in: WitnessInput,
                  k: Int): Option[String] = {
    val f = in.freq(in.top).toLong
    val n = in.records.length.toLong
    if (!top.contains(in.top)) Some(s"top candidate $top, true top ${in.top}")
    else if (!(estimate - error <= f && f <= estimate && error <= n / k))
      Some(s"bounds fail: estimate $estimate error $error true $f")
    else None
  }

  /** Misra–Gries: the top candidate is the true top item and its estimate f̂
    * satisfies f - N/(k+1) ≤ f̂ ≤ f.
    */
  def misraGries(top: Option[Long], estimate: Long, in: WitnessInput, k: Int): Option[String] = {
    val f = in.freq(in.top).toLong
    val n = in.records.length.toLong
    if (!top.contains(in.top)) Some(s"top candidate $top, true top ${in.top}")
    else if (!(estimate <= f && f - n / (k + 1) <= estimate))
      Some(s"bounds fail: estimate $estimate true $f")
    else None
  }

  /** Exact store over a prefix: a maximum-degree vertex of the prefix with
    * its first min(d, deg) neighbors.
    */
  def exactNd(report: Option[Neighborhood], prefix: WitnessInput, d: Int): Option[String] =
    report match {
      case None => Some("no report")
      case Some(nb) =>
        val own = prefix.witnessesOf.getOrElse(nb.a, Array.emptyLongArray)
        if (own.length != prefix.maxFreq) Some(s"vertex ${nb.a} has degree ${own.length}, max is ${prefix.maxFreq}")
        else if (nb.neighbors.toSet != own.take(d).toSet || !distinct(nb.neighbors))
          Some(s"vertex ${nb.a}: not its first min(d, deg) neighbors")
        else None
    }

  /** Star Detection: a valid star whose size is within (1+ε)·c of Δ. */
  def star(report: Option[Neighborhood], g: GraphInput, c: Int, eps: Double): Option[String] =
    report match {
      case None => Some("no star")
      case Some(nb) =>
        if (!Neighborhood.isValid(nb, g.adjacency)) Some(s"centre ${nb.a}: not a star of the graph")
        else if (g.maxDegree.toDouble / nb.size > (1 + eps) * c)
          Some(s"star of ${nb.size} leaves, Δ = ${g.maxDegree}, bound (1+ε)c = ${(1 + eps) * c}")
        else None
    }

  /** Algorithm 3: at least ⌊d/c⌋ distinct neighbors, each an edge of the
    * graph left after the deletions.
    */
  def turnstile(report: Option[Neighborhood], in: TurnstileInput, c: Int): Option[String] =
    report match {
      case None => Some(s"${in.regime}: no report")
      case Some(nb) =>
        if (nb.size < math.max(1, in.d / c)) Some(s"${in.regime}: ${nb.size} neighbors, want ${in.d / c}")
        else if (!Neighborhood.isValid(nb, in.adjacency))
          Some(s"${in.regime}: vertex ${nb.a}: repeated or deleted edge")
        else None
    }

  /** Linear sketches with equal seeds give equal answers in any order. */
  def parity(sequential: Option[Neighborhood], spark: Option[Neighborhood]): Option[String] =
    if (sequential.map(n => (n.a, n.neighbors.toSet)) == spark.map(n => (n.a, n.neighbors.toSet))) None
    else Some(s"TurnstileND gave $sequential, SparkL0 gave $spark")
}
