package perfbench

import scala.collection.immutable.ArraySeq
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baseline.{ExactND, MisraGries, SpaceSaving}
import repro.core.{InsertionOnlyND, Neighborhood, StarDetection}
import repro.sketch.{TurnstileConfig, TurnstileND}
import repro.spark.{SparkDegRes, SparkL0, StreamingWitness}

/** One entry-point call of a round. `call` takes the program's seed for the
  * round, makes the call and returns the check of its report, which the
  * runner times apart from the call.
  */
final case class Op(name: String, records: Long, call: Long => () => Option[String])

/** A workload: the same calls on the same inputs in every round. */
trait Workload {
  def ops: Vector[Op]

  /** Warms the JIT and Spark's caches; part of set-up. */
  def warmUp(): Unit

  /** Per-layer metrics of traced round `r`, by name. */
  def layer(t: Tracer, r: Int): Map[String, Double]
}

object Workload {
  val names: Vector[String] = Vector("insert", "turnstile", "spark")

  def usesSpark(name: String): Boolean = name != "insert"

  def apply(name: String, seed: Long, t: Tracer, spark: Option[SparkSession],
            acct: => Option[SparkAccounting]): Workload = name match {
    case "insert"    => new Insert(seed, t)
    case "turnstile" => new Turnstile(seed, t, spark.get, acct)
    case "spark"     => new SparkStream(seed, small = false, t, spark.get, acct)
  }

  /** Runs every op `passes` times, each pass with its own program seed,
    * ignoring reports and failures.
    */
  private[perfbench] def exercise(ops: Vector[Op], passes: Int): Unit =
    for (p <- 1 to passes; op <- ops) try op.call(-p.toLong) catch { case NonFatal(_) => () }

  private[perfbench] def attribute[T](acct: Option[SparkAccounting], op: String)(body: => T): T =
    acct.fold(body)(_.attribute(op)(body))

  private[perfbench] def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
    }
}

/** `insert`: Algorithm 2 at c = 2 and c = 4, SpaceSaving and Misra–Gries at
  * the c = 2 counter budget and the exact store on a prefix, all on one Zipf
  * witness stream; Star Detection on a planted-star general graph.
  */
final class Insert(seed: Long, t: Tracer) extends Workload {
  import Insert._

  val stream: WitnessInput = Gen.zipfWitness(Items, Total, Alpha, seed)
  val prefix = new WitnessInput(stream.records.take(Prefix), stream.nItems)
  val graph: GraphInput = Gen.plantedStarGraph(StarN, StarDelta, StarExtra, seed ^ 0x5a5a5a5aL)
  private val d = stream.maxFreq
  private val k = InsertionOnlyND.reservoirSize(stream.nItems, 2)
  private val starC = math.ceil(math.log(StarN.toDouble)).toInt
  private val n = stream.records.length.toLong

  private def report(nb: Option[Neighborhood]) = nb.map(x => (x.a, x.neighbors))

  def warmUp(): Unit = Workload.exercise(ops, 3)

  private def algorithm2(c: Int) = Op(s"core.insertion_nd.c$c", n, ps => {
    val res = InsertionOnlyND.run(ArraySeq.unsafeWrapArray(stream.edges), stream.nItems, d, c, ps * 31 + c)
    t.count(s"core.insertion_nd.peak_words.c$c", res.totalPeakWords.toDouble)
    () => Check.witnessReport(report(res.output), stream, d, c)
  })

  val ops: Vector[Op] = Vector(
    algorithm2(2),
    algorithm2(4),
    Op("baseline.space_saving", n, _ => {
      val ss = new SpaceSaving(k).processAll(ArraySeq.unsafeWrapArray(stream.items))
      val top = ss.candidates.headOption.map(_._1)
      t.count("baseline.space_saving.peak_words", ss.peakWords.toDouble)
      () => Check.spaceSaving(top, ss.estimate(stream.top), ss.error(stream.top), stream, k)
    }),
    Op("baseline.misra_gries", n, _ => {
      val mg = new MisraGries(k).processAll(ArraySeq.unsafeWrapArray(stream.items))
      val top = mg.candidates.headOption.map(_._1)
      t.count("baseline.misra_gries.peak_words", mg.peakWords.toDouble)
      () => Check.misraGries(top, mg.estimate(stream.top), stream, k)
    }),
    Op("baseline.exact_nd", prefix.records.length.toLong, _ => {
      val ex = new ExactND(d).processAll(ArraySeq.unsafeWrapArray(prefix.edges))
      val best = ex.best
      t.count("baseline.exact_nd.peak_words", ex.peakWords.toDouble)
      () => Check.exactNd(best, prefix, d)
    }),
    Op("core.star", graph.edges.length.toLong, ps => {
      val res = StarDetection.run(ArraySeq.unsafeWrapArray(graph.edges), graph.n, starC, StarEps, ps * 31 + 7)
      t.count("core.star.peak_words", res.totalPeakWords.toDouble)
      () => Check.star(res.output, graph, starC, StarEps)
    }),
  )

  def layer(t: Tracer, r: Int): Map[String, Double] = {
    def nsPer(op: Op) = t.spanNs(r, op.name).toDouble / op.records
    val byName = ops.map(o => o.name -> o).toMap
    Map(
      "core.insertion_nd.ns_per_record.c2" -> nsPer(byName("core.insertion_nd.c2")),
      "core.insertion_nd.ns_per_record.c4" -> nsPer(byName("core.insertion_nd.c4")),
      "core.star.ns_per_edge" -> nsPer(byName("core.star")),
      "baseline.space_saving.ns_per_record" -> nsPer(byName("baseline.space_saving")),
      "baseline.misra_gries.ns_per_record" -> nsPer(byName("baseline.misra_gries")),
      "baseline.exact_nd.ns_per_record" -> nsPer(byName("baseline.exact_nd")),
    ) ++ Seq("core.insertion_nd.peak_words.c2", "core.insertion_nd.peak_words.c4", "core.star.peak_words",
      "baseline.space_saving.peak_words", "baseline.misra_gries.peak_words", "baseline.exact_nd.peak_words")
      .map(m => m -> t.get(r, m))
  }
}

object Insert {
  val Items = 2000
  val Total = 60000
  val Alpha = 1.1
  val Prefix = 10000
  val StarN = 2048
  val StarDelta = 128
  val StarExtra = 4 * 2048
  val StarEps = 0.5
}

/** `turnstile`: streams with chaff in the many-heavy (Lemma 5.2) and
  * single-heavy (Lemma 5.3) regimes at c = 2 and c = 4, each through the
  * sequential TurnstileND and the distributed SparkL0 with one config.
  */
final class Turnstile(seed: Long, t: Tracer, spark: SparkSession,
                      acct: => Option[SparkAccounting]) extends Workload {
  import Turnstile._

  private val n = N
  private val m = 8 * n

  /** (input, config) per stream, in round order. */
  val streams: Vector[(TurnstileInput, TurnstileConfig)] =
    for (c <- Vector(2, 4); regime <- Vector("many-heavy", "single-heavy")) yield {
      val x = math.max(n.toDouble / c, math.sqrt(n.toDouble))
      val heavy = if (regime == "many-heavy") math.ceil(2 * n / x).toInt else 1
      val s = seed * 31 + c * 2 + (if (regime == "many-heavy") 0 else 1)
      (Gen.turnstile(regime, n, m, D, heavy, Bg, Chaff, s),
        TurnstileConfig(n.toLong, m.toLong, D, c, s * 17 + 3, Cv, Ce, Buckets))
    }

  private var lastSequential: Option[Neighborhood] = None

  def warmUp(): Unit = Workload.exercise(ops, 2)

  val ops: Vector[Op] = streams.flatMap { case (in, cfg) =>
    val tag = s"${in.regime}.c${cfg.c}"
    Vector(
      Op(s"sketch.turnstile.$tag", in.ops.length.toLong, _ => {
        lastSequential = None
        val nd = t.span(s"sketch.turnstile.new.c${cfg.c}")(new TurnstileND(cfg))
        var i = 0
        while (i < in.ops.length) {
          val op = in.ops(i)
          t.span(s"sketch.turnstile.process.c${cfg.c}")(nd.process(op))
          i += 1
        }
        val res = t.span("sketch.turnstile.result")(nd.result())
        t.count("sketch.turnstile.words", res.totalWords.toDouble)
        lastSequential = res.output
        () => Check.turnstile(res.output, in, cfg.c)
      }),
      Op(s"spark.l0.$tag", in.ops.length.toLong, _ => {
        val res = Workload.attribute(acct, "spark.l0")(SparkL0.run(spark, ArraySeq.unsafeWrapArray(in.ops), cfg))
        val sequential = lastSequential
        () => Check.turnstile(res.output, in, cfg.c).orElse(Check.parity(sequential, res.output))
      }),
    )
  }

  def layer(t: Tracer, r: Int): Map[String, Double] = {
    def opsAt(c: Int) = streams.filter(_._2.c == c).map(_._1.ops.length).sum.toDouble
    def updateNs(c: Int) =
      t.spanNs(r, s"sketch.turnstile.new.c$c") + t.spanNs(r, s"sketch.turnstile.process.c$c")
    val samplers = streams.map { case (_, cfg) =>
      cfg.sampledVertices.size.toLong * cfg.samplersPerVertex + cfg.nEdgeSamplers
    }.sum
    val samplerUpdates = streams.map { case (in, cfg) =>
      val sampled = cfg.sampledVertices.toSet
      in.ops.iterator.map(op =>
        cfg.nEdgeSamplers.toLong + (if (sampled.contains(op.edge.a)) cfg.samplersPerVertex else 0)).sum
    }.sum
    Map(
      "sketch.turnstile.ns_per_op.c2" -> updateNs(2) / opsAt(2),
      "sketch.turnstile.ns_per_op.c4" -> updateNs(4) / opsAt(4),
      "sketch.turnstile.result_ms" ->
        t.spanNs(r, "sketch.turnstile.result") / 1e6 / t.spanCount(r, "sketch.turnstile.result"),
      "sketch.turnstile.words" -> t.get(r, "sketch.turnstile.words"),
      "sketch.turnstile.samplers" -> samplers.toDouble,
      "sketch.turnstile.sampler_updates" -> samplerUpdates.toDouble,
      "spark.l0.wall_s" -> ops.filter(_.name.startsWith("spark.l0.")).map(o => t.spanNs(r, o.name)).sum / 1e9,
      "spark.l0.tasks" -> t.get(r, "spark.l0.tasks"),
      "spark.l0.executor_run_ms" -> t.get(r, "spark.l0.executor_run_ms"),
    )
  }
}

object Turnstile {
  val N = 256
  val D = 32
  val Bg = 2
  val Chaff = 0.3
  val Cv = 0.5
  val Ce = 0.2
  val Buckets = 6
}

/** `spark`: one Zipf witness stream through the Structured Streaming
  * operator in a fixed number of micro-batches, and through the DataFrame
  * build of Algorithm 2 at c = 2 and c = 4.
  */
final class SparkStream(seed: Long, small: Boolean, t: Tracer, spark: SparkSession,
                        acct: => Option[SparkAccounting]) extends Workload {
  import SparkStream._

  val stream: WitnessInput = Gen.zipfWitness(Items, if (small) Total / 10 else Total, Alpha, seed)
  private val d = stream.maxFreq
  private val n = stream.records.length.toLong
  private val records = ArraySeq.unsafeWrapArray(stream.records)
  /** The stream as rows (pos, a, b), the DataFrame build's input. */
  val edges: DataFrame = {
    import spark.implicits._
    stream.records.toSeq.map(r => (r.witness, r.item, r.witness)).toDF("pos", "a", "b")
  }

  /** Warm-up runs a tenth of the stream in one micro-batch, and the
    * DataFrame build at c = 2 only, which plans the same queries as c = 4:
    * Spark's first queries are slow, and a warm-up at full size would double
    * the set-up time.
    */
  private val warm = if (small) None else Some(new SparkStream(seed, small = true, t, spark, None))

  def warmUp(): Unit = warm.foreach(w => Workload.exercise(w.ops.take(2), 1))

  private def degRes(c: Int) = Op(s"spark.degres.c$c", n, ps => {
    val res = Workload.attribute(acct, "spark.degres")(SparkDegRes.run(edges, stream.nItems, d, c, ps * 31 + c))
    () => Check.witnessReport(res.output.map(x => (x.a, x.neighbors)), stream, d, c)
  })

  val ops: Vector[Op] = Vector(
    Op("spark.stream", n, ps => {
      val cfg = StreamingWitness.Config(stream.nItems, d, c = 2, seed = ps * 31 + 5)
      val (rep, _, _) = Workload.attribute(acct, "spark.stream")(
        StreamingWitness.runMicroBatched(spark, records, if (small) 1 else Batches, cfg))
      () => Check.witnessReport(rep.map(x => (x.item, x.witnesses)), stream, d, 2)
    }),
    degRes(2),
    degRes(4),
  )

  def layer(t: Tracer, r: Int): Map[String, Double] = {
    val batches = t.get(r, "stream.batches").toInt
    def perBatch(k: String) = Workload.median((0 until batches).map(i => t.get(r, s"stream.$k.$i")))
    Map(
      "spark.degres.wall_s" -> (t.spanNs(r, "spark.degres.c2") + t.spanNs(r, "spark.degres.c4")) / 1e9,
      "spark.stream.wall_s" -> t.spanNs(r, "spark.stream") / 1e9,
      "spark.stream.batch_ms" -> perBatch("trigger_ms"),
      "spark.stream.add_batch_ms" -> perBatch("add_batch_ms"),
      "spark.stream.planning_ms" -> perBatch("planning_ms"),
      "spark.stream.tasks_per_batch" -> t.get(r, "spark.stream.batch_tasks") / math.max(1, batches),
      "spark.stream.state_rows" -> t.get(r, "stream.state_rows"),
      "spark.stream.state_bytes" -> t.get(r, "stream.state_bytes"),
      "spark.stream.sink_rows" -> t.get(r, "stream.sink_rows"),
      "spark.stream.shuffle_write_bytes" -> t.get(r, "spark.stream.shuffle_write_bytes"),
    ) ++ Seq("jobs", "stages", "tasks", "shuffle_write_bytes", "executor_run_ms")
      .map(k => s"spark.degres.$k" -> t.get(r, s"spark.degres.$k"))
  }
}

object SparkStream {
  val Items = 2000
  val Total = 20000
  val Alpha = 1.1
  val Batches = 2
}
