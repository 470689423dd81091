package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryListener

/** One timed interval around a call into the program. */
final case class Span(id: Int, parent: Int, name: String, round: Int, startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

/** Spans and counts of a traced run, kept in memory until the run ends.
  * When off, `span` only runs its body.
  */
final class Tracer(var on: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  /** Per round, named counts read from results and listeners. */
  val counts = mutable.HashMap.empty[(Int, String), Double]
  var round: Int = -1
  private var parent: Int = -1

  def span[T](name: String)(body: => T): T =
    if (!on) body
    else {
      val id = spans.size
      spans += null
      val outer = parent
      parent = id
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, outer, name, round, t0, System.nanoTime())
        parent = outer
      }
    }

  def count(name: String, value: Double): Unit =
    if (on) synchronized { counts.update((round, name), counts.getOrElse((round, name), 0.0) + value) }

  /** Summed duration of the spans called `name` in round `r`. */
  def spanNs(r: Int, name: String): Long =
    spans.iterator.filter(s => s.round == r && s.name == name).map(_.ns).sum

  def spanCount(r: Int, name: String): Int = spans.count(s => s.round == r && s.name == name)

  def get(r: Int, name: String): Double = counts.getOrElse((r, name), 0.0)

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","round":${s.round},"start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally out.close()
  }
}

/** Spark's own accounting of the calls the benchmark makes, read through a
  * SparkListener and a StreamingQueryListener. Work is attributed by the
  * local properties `perfbench.op` and `perfbench.round`, which the
  * benchmark sets around each call and which Spark copies onto every job and
  * stage, including those of a streaming query's own thread.
  */
final class SparkAccounting(spark: SparkSession, tracer: Tracer) {
  private val stageKey = mutable.HashMap.empty[Int, (Int, String, Boolean)]
  private val queryRound = mutable.HashMap.empty[java.util.UUID, Int]
  @volatile private var lastEvent = System.nanoTime()
  private val jobsOpen = new java.util.concurrent.atomic.AtomicInteger

  private def add(r: Int, op: String, name: String, v: Double): Unit = tracer.synchronized {
    tracer.counts.update((r, s"$op.$name"), tracer.counts.getOrElse((r, s"$op.$name"), 0.0) + v)
  }

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      lastEvent = System.nanoTime()
      jobsOpen.incrementAndGet()
      Option(e.properties).flatMap(p => Option(p.getProperty("perfbench.op")).map(op =>
        (p.getProperty("perfbench.round").toInt, op))).foreach { case (r, op) => add(r, op, "jobs", 1) }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      lastEvent = System.nanoTime(); jobsOpen.decrementAndGet()
    }
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
      lastEvent = System.nanoTime()
      Option(e.properties).foreach { p =>
        Option(p.getProperty("perfbench.op")).foreach { op =>
          val r = p.getProperty("perfbench.round").toInt
          val streaming = p.getProperty("sql.streaming.queryId") != null
          stageKey.update(e.stageInfo.stageId, (r, op, streaming))
          add(r, op, "stages", 1)
        }
      }
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      lastEvent = System.nanoTime()
      stageKey.get(e.stageId).foreach { case (r, op, streaming) =>
        add(r, op, "tasks", 1)
        if (streaming) add(r, op, "batch_tasks", 1)
        Option(e.taskMetrics).foreach { m =>
          add(r, op, "executor_run_ms", m.executorRunTime.toDouble)
          add(r, op, "shuffle_write_bytes", m.shuffleWriteMetrics.bytesWritten.toDouble)
        }
      }
    }
  }

  private val queryListener = new StreamingQueryListener {
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = synchronized {
      queryRound.update(e.id, tracer.round)
    }
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = synchronized {
      lastEvent = System.nanoTime()
      val p = e.progress
      val r = queryRound.getOrElse(p.id, -1)
      if (p.numInputRows > 0) {
        def ms(k: String): Double = Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
        tracer.synchronized {
          val seq = tracer.counts.getOrElse((r, "stream.batches"), 0.0)
          tracer.counts.update((r, "stream.batches"), seq + 1)
          tracer.counts.update((r, s"stream.trigger_ms.${seq.toInt}"), ms("triggerExecution"))
          tracer.counts.update((r, s"stream.add_batch_ms.${seq.toInt}"), ms("addBatch"))
          tracer.counts.update((r, s"stream.planning_ms.${seq.toInt}"), ms("queryPlanning"))
          tracer.counts.update((r, "stream.state_rows"), p.stateOperators.map(_.numRowsTotal).sum.toDouble)
          tracer.counts.update((r, "stream.state_bytes"), p.stateOperators.map(_.memoryUsedBytes).sum.toDouble)
          val out = tracer.counts.getOrElse((r, "stream.sink_rows"), 0.0)
          tracer.counts.update((r, "stream.sink_rows"), out + math.max(0L, p.sink.numOutputRows))
        }
      }
    }
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
  }

  spark.sparkContext.addSparkListener(listener)
  spark.streams.addListener(queryListener)

  /** Run `body` with Spark work attributed to `op` in the tracer's round,
    * when the tracer is on.
    */
  def attribute[T](op: String)(body: => T): T = if (!tracer.on) body else {
    val sc = spark.sparkContext
    sc.setLocalProperty("perfbench.op", op)
    sc.setLocalProperty("perfbench.round", tracer.round.toString)
    try body
    finally { sc.setLocalProperty("perfbench.op", null); sc.setLocalProperty("perfbench.round", null) }
  }

  /** Listener events arrive on Spark's own thread; wait until every job has
    * ended and no event has come for a while, then stop listening.
    */
  def drain(): Unit = {
    val deadline = System.nanoTime() + 20000000000L
    def quiet = jobsOpen.get <= 0 && System.nanoTime() - lastEvent > 500000000L
    while (!quiet && System.nanoTime() < deadline) Thread.sleep(50)
    spark.sparkContext.removeSparkListener(listener)
    spark.streams.removeListener(queryListener)
  }
}
