package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{Edge, Neighborhood, StreamOp, WitnessRecord}

/** Hand-made reports, right and wrong, fed to the benchmark's checks. */
class CheckSpec extends AnyFunSuite {

  // Item 1 occurs at positions 0 2 3 5 6 7 9 and item 2 at 1 4 8; a
  // record's witness is its position. With d = 6 and c = 2, d2 = 3 and the
  // collection windows of item 1 are occurrences 1..3 = {0, 2, 3} (run 0)
  // and 3..5 = {3, 5, 6} (run 1).
  private val stream = new WitnessInput(
    Array(1, 2, 1, 1, 2, 1, 1, 1, 2, 1).zipWithIndex.map { case (item, p) =>
      WitnessRecord(item.toLong, p.toLong)
    }, nItems = 2)

  private def witness(ws: Long*) = Check.witnessReport(Some((1L, ws)), stream, d = 6, c = 2)

  test("reference: frequencies and witnesses in stream order") {
    assert(stream.freq == Map(1L -> 7, 2L -> 3))
    assert(stream.witnessesOf(1L).toSeq == Seq(0L, 2L, 3L, 5L, 6L, 7L, 9L))
    assert(stream.top == 1L && stream.maxFreq == 7)
  }

  test("witness report: each collection window passes") {
    assert(witness(0, 2, 3).isEmpty)
    assert(witness(6, 5, 3).isEmpty)
  }

  test("witness report: a repeated witness is rejected") {
    assert(witness(0, 2, 2).nonEmpty)
  }

  test("witness report: a witness of another item is rejected") {
    assert(witness(0, 2, 4).nonEmpty)
  }

  test("witness report: witnesses outside every collection window are rejected") {
    assert(witness(2, 3, 5).nonEmpty)
    assert(witness(7, 9, 0).nonEmpty)
  }

  test("witness report: a short or missing report is rejected") {
    assert(witness(0, 2).nonEmpty)
    assert(Check.witnessReport(None, stream, d = 6, c = 2).nonEmpty)
  }

  test("counter sketches: the wrong top item or a broken bound is rejected") {
    assert(Check.spaceSaving(Some(1L), 8, 1, stream, k = 2).isEmpty)
    assert(Check.spaceSaving(Some(2L), 8, 1, stream, k = 2).nonEmpty)
    assert(Check.spaceSaving(Some(1L), 6, 0, stream, k = 2).nonEmpty)
    assert(Check.misraGries(Some(1L), 5, stream, k = 2).isEmpty)
    assert(Check.misraGries(Some(1L), 8, stream, k = 2).nonEmpty)
    assert(Check.misraGries(None, 7, stream, k = 2).nonEmpty)
  }

  test("exact store: a vertex below the maximum degree or other neighbors are rejected") {
    assert(Check.exactNd(Some(Neighborhood(1L, Vector(0L, 2L, 3L, 5L, 6L, 7L, 9L))), stream, d = 7).isEmpty)
    assert(Check.exactNd(Some(Neighborhood(1L, Vector(0L, 2L, 3L))), stream, d = 3).isEmpty)
    assert(Check.exactNd(Some(Neighborhood(1L, Vector(2L, 3L, 5L))), stream, d = 3).nonEmpty)
    assert(Check.exactNd(Some(Neighborhood(2L, Vector(1L, 4L, 8L))), stream, d = 7).nonEmpty)
  }

  test("star: a non-edge or a star below Δ / ((1+ε)c) is rejected") {
    // Centre 1 with leaves 2..9 (Δ = 8) plus the edge 2-3.
    val g = new GraphInput(((2L to 9L).map(l => (1L, l)) :+ ((2L, 3L))).toArray, n = 9)
    assert(Check.star(Some(Neighborhood(1L, Vector(2L, 3L))), g, c = 2, eps = 1.0).isEmpty)
    assert(Check.star(Some(Neighborhood(1L, Vector(2L))), g, c = 2, eps = 1.0).nonEmpty)
    assert(Check.star(Some(Neighborhood(2L, Vector(1L, 4L))), g, c = 2, eps = 1.0).nonEmpty)
  }

  // Vertex 1 keeps edges to 1, 2, 3; its edge to 4 is inserted and deleted.
  private val turnstile = new TurnstileInput("test",
    Array((1, 1, 1), (1, 4, 1), (2, 1, 1), (1, 2, 1), (1, 4, -1), (1, 3, 1)).map { case (a, b, delta) =>
      StreamOp(Edge(a.toLong, b.toLong), delta)
    }, n = 2, m = 4, d = 4)

  test("turnstile: the adjacency left after deletions") {
    assert(turnstile.adjacency == Map(1L -> Set(1L, 2L, 3L), 2L -> Set(1L)))
  }

  test("turnstile: a deleted edge is rejected") {
    assert(Check.turnstile(Some(Neighborhood(1L, Vector(1L, 2L))), turnstile, c = 2).isEmpty)
    assert(Check.turnstile(Some(Neighborhood(1L, Vector(1L, 4L))), turnstile, c = 2).nonEmpty)
  }

  test("turnstile: repeated, too few or missing neighbors are rejected") {
    assert(Check.turnstile(Some(Neighborhood(1L, Vector(2L, 2L))), turnstile, c = 2).nonEmpty)
    assert(Check.turnstile(Some(Neighborhood(1L, Vector(3L))), turnstile, c = 2).nonEmpty)
    assert(Check.turnstile(None, turnstile, c = 2).nonEmpty)
  }

  test("parity: the two builds must report one neighborhood") {
    val nb = Some(Neighborhood(1L, Vector(1L, 2L)))
    assert(Check.parity(nb, Some(Neighborhood(1L, Vector(2L, 1L)))).isEmpty)
    assert(Check.parity(nb, Some(Neighborhood(1L, Vector(1L, 3L)))).nonEmpty)
    assert(Check.parity(nb, None).nonEmpty)
  }
}
