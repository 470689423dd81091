package perfbench

import java.io.File
import java.time.Instant
import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** One benchmark JVM: sets up one workload, runs whole rounds of it for the
  * given time, and prints one line `PERFBENCH {json}` with its counts and
  * timings. `perfbench/run.py` starts these JVMs and merges their lines.
  *
  * Arguments: --workload insert|turnstile|spark --seed N --seconds S
  * --min-rounds 0|1 --trace 0|1 --jvm <index in the run>
  * --t0-ns <epoch ns at JVM launch> [--trace-file PATH]
  * With S <= 0 and --min-rounds 0 the JVM only sets up.
  */
object Main {

  /** Counts and timings of the rounds run so far. */
  final class Tally {
    var attempted = 0L
    var failed = 0L
    var wrong = 0L
    var timedNs = 0L
    val rates = mutable.ArrayBuffer.empty[Double]
    val faults = mutable.LinkedHashSet.empty[String]
  }

  def epochNs(): Long = { val i = Instant.now(); i.getEpochSecond * 1000000000L + i.getNano }

  /** One round: every op of the workload once, each call timed on its own
    * and given the program seed `ps`.
    */
  def round(w: Workload, t: Tracer, r: Int, ps: Long, tally: Tally): Unit = {
    t.round = r
    var records = 0L
    var ns = 0L
    t.span("round") {
      for (op <- w.ops) {
        tally.attempted += 1
        val start = System.nanoTime()
        val check =
          try Right(t.span(op.name)(op.call(ps)))
          catch { case NonFatal(e) => Left(e) }
        ns += System.nanoTime() - start
        records += op.records
        check match {
          case Left(e) =>
            tally.failed += 1; tally.faults += s"${op.name} threw $e"
          case Right(verdict) => verdict().foreach { msg =>
            tally.failed += 1; tally.wrong += 1; tally.faults += s"${op.name}: $msg"
          }
        }
      }
    }
    tally.timedNs += ns
    tally.rates += records / (ns / 1e9)
  }

  private def json(x: Any): String = x match {
    case s: String => "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case ch if ch < ' ' => " "; case ch => ch.toString
    } + "\""
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case m: Map[_, _] => m.map { case (k, v) => json(k.toString) + ":" + json(v) }.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(json).mkString("[", ",", "]")
    case other => other.toString
  }

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val name = opt("workload")
    require(Workload.names.contains(name), s"unknown workload $name")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val minRounds = opt("min-rounds").toInt
    val traced = opt("trace") == "1"
    val t0 = opt("t0-ns").toLong
    val jvm = opt("jvm").toInt

    var excludedNs = 0L
    def excluded[T](body: => T): T = {
      val s = System.nanoTime()
      try body finally excludedNs += System.nanoTime() - s
    }

    var sessionS = 0.0
    val spark: Option[SparkSession] =
      if (!Workload.usesSpark(name)) None
      else {
        val s = System.nanoTime()
        val session = jobs.Jobs.session("perfbench")
        sessionS = (System.nanoTime() - s) / 1e9
        Some(session)
      }
    val tracer = new Tracer(false)
    var acct: Option[SparkAccounting] = None
    val w = excluded(Workload(name, seed, tracer, spark, acct))
    w.warmUp()
    val setupS = (epochNs() - t0 - excludedNs) / 1e9

    // A traced run first makes one untimed round at full size, then
    // interleaves untraced and traced rounds, alternating which goes first,
    // so that both see the same state of the JIT and the caches.
    val plain = new Tally
    val tr = new Tally
    val lead = new Tally
    if (traced) {
      round(w, tracer, -1, seed * 1000003L + 999L, lead)
      acct = spark.map(new SparkAccounting(_, tracer))
    }
    val start = System.nanoTime()
    var r = 0
    while (r < minRounds || System.nanoTime() - start < seconds * 1e9) {
      val order = if (!traced) Seq(false) else if (r % 2 == 0) Seq(false, true) else Seq(true, false)
      // Each round calls the program with a seed of its own, so that a run's
      // median spans many of the program's random choices.
      val ps = seed * 1000003L + jvm * 1000L + r
      for (on <- order) { tracer.on = on; round(w, tracer, if (on) r else -1, ps, if (on) tr else plain) }
      r += 1
    }
    tracer.on = false
    val measuredS = (System.nanoTime() - start) / 1e9

    val all = Seq(lead, plain, tr)
    var out = Map[String, Any](
      "setup_s" -> setupS, "measured_s" -> measuredS, "rounds" -> r,
      "records_per_round" -> w.ops.map(_.records).sum,
      "rates" -> plain.rates.toVector, "attempted" -> all.map(_.attempted).sum,
      "failed" -> all.map(_.failed).sum, "wrong" -> all.map(_.wrong).sum,
      "faults" -> all.flatMap(_.faults).distinct)
    if (traced) {
      acct.foreach(_.drain())
      val perRound = (0 until r).map(i => w.layer(tracer, i))
      val layer = perRound.head.keys.map(k => k -> Workload.median(perRound.map(_(k)))).toMap ++ Map(
        "jobs.session_start_s" -> sessionS,
        "bench.trace_overhead_s" -> (tr.timedNs - plain.timedNs) / 1e9)
      out += "layer" -> layer
      opt.get("trace-file").foreach(f => tracer.write(new File(f)))
    }
    println("PERFBENCH " + json(out))
    spark.foreach(_.stop())
  }
}
