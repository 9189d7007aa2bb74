package bedom_test

import (
	"fmt"
	"log"
	"slices"

	"bedom"
)

// The sequential pipeline of Theorem 5 on a 20×20 grid.  The order's
// measured weak 4-colouring number bounds the approximation factor, and the
// scattered-set lower bound certifies it on this instance.
func ExampleDominatingSet() {
	g := bedom.Grid(20, 20)
	o := bedom.BuildOrder(g, 2)
	fmt.Println("graph:", g.N(), "vertices,", g.M(), "edges; wcol_4 =", bedom.WeakColouringNumber(g, o, 4))

	res, err := bedom.DominatingSet(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distance-2 dominating set: |D|=%d lower bound=%d ratio≤%.2f solver=%s valid=%v\n",
		len(res.Set), res.LowerBound, res.Ratio(), res.Solver, bedom.IsDominatingSet(g, res.Set, 2))
	// Output:
	// graph: 400 vertices, 760 edges; wcol_4 = 29
	// distance-2 dominating set: |D|=244 lower bound=23 ratio≤10.61 solver=paper valid=true
}

// Every registered strategy answers the same question; they differ in
// guarantee and cost.  "greedy" is the classical ln(n) baseline.
func ExampleDominatingSetWith() {
	g := bedom.Grid(20, 20)
	for _, name := range bedom.Solvers() {
		res, err := bedom.DominatingSetWith(g, 2, name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s |D|=%d lower bound=%d valid=%v\n",
			name, len(res.Set), res.LowerBound, bedom.IsDominatingSet(g, res.Set, 2))
	}
	// Output:
	// dvorak       |D|=234 lower bound=22 valid=true
	// greedy       |D|=49 lower bound=24 valid=true
	// kubsv        |D|=257 lower bound=22 valid=true
	// order-greedy |D|=80 lower bound=22 valid=true
	// paper        |D|=244 lower bound=23 valid=true
}

// Corollary 13: Algorithm 1's set joined through the weak-reachability
// closure into a connected distance-2 dominating set.
func ExampleConnectedDominatingSet() {
	g := bedom.Grid(20, 20)
	res, err := bedom.ConnectedDominatingSet(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected distance-2 dominating set: |D'|=%d lower bound=%d valid=%v\n",
		len(res.Set), res.LowerBound, bedom.IsConnectedDominatingSet(g, res.Set, 2))
	// Output:
	// connected distance-2 dominating set: |D'|=396 lower bound=25 valid=true
}

// Theorem 4: every closed 2-neighborhood lies in a cluster of radius at most
// 4, and no vertex is in more than wcol_4 clusters.
func ExampleNeighborhoodCover() {
	g := bedom.Grid(20, 20)
	cov, err := bedom.NeighborhoodCover(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-neighborhood cover: %d clusters, degree %d, max radius %d (bound 4)\n",
		len(cov.Clusters), cov.Degree, cov.MaxRadius)
	// Output:
	// 2-neighborhood cover: 400 clusters, degree 29, max radius 4 (bound 4)
}

// Theorems 9 and 10 on the CONGEST_BC simulator: the distributed dominating
// set, then the connected one built on top of it, with their communication
// cost.
func ExampleDistributedDominatingSet() {
	g := bedom.Grid(20, 20)
	ds, err := bedom.DistributedDominatingSet(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dominating set: |D|=%d rounds=%d messages=%d max-msg-words=%d valid=%v\n",
		len(ds.Set), ds.Rounds, ds.Messages, ds.MaxMessageWords, bedom.IsDominatingSet(g, ds.Set, 2))

	cds, err := bedom.DistributedConnectedDominatingSet(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected: |D|=%d |D'|=%d rounds=%d max-msg-words=%d valid=%v\n",
		len(cds.DomSet), len(cds.Set), cds.Rounds, cds.MaxMessageWords, bedom.IsConnectedDominatingSet(g, cds.Set, 2))
	// Output:
	// dominating set: |D|=360 rounds=8 messages=12083 max-msg-words=24 valid=true
	// connected: |D|=360 |D'|=360 rounds=14 max-msg-words=140 valid=true
}

// Theorem 17's constant-round LOCAL pipeline for planar graphs: the
// Lenzen–Pignolet–Wattenhofer dominating set, connected by the 3r+1-round
// connector of Lemma 16.  Running LocalConnect on the Lenzen set at r = 1
// repeats the pipeline's second phase.
func ExamplePlanarLocalConnectedDominatingSet() {
	g := bedom.Grid(20, 20)
	res, err := bedom.PlanarLocalConnectedDominatingSet(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Lenzen |D|=%d, connected |D'|=%d (factor %.2f ≤ 6) in %d rounds, valid=%v\n",
		len(res.DomSet), len(res.Set), float64(len(res.Set))/float64(len(res.DomSet)), res.Rounds,
		bedom.IsConnectedDominatingSet(g, res.Set, 1))

	conn, err := bedom.LocalConnect(g, res.DomSet, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LocalConnect: |D'|=%d in %d rounds (3r+1 = 4), same set: %v\n",
		len(conn.Set), conn.Rounds, slices.Equal(conn.Set, res.Set))
	// Output:
	// Lenzen |D|=328, connected |D'|=334 (factor 1.02 ≤ 6) in 10 rounds, valid=true
	// LocalConnect: |D'|=334 in 4 rounds (3r+1 = 4), same set: true
}
