// Serving: drive the concurrent domination query engine the way the
// domserved daemon does — register graphs, fan concurrent and batched
// queries across the worker pool, and read the cache statistics that show
// substrate construction being amortized: the weak-reachability order is
// built once per (graph, radius) and every later query reuses it.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"bedom/internal/engine"
	"bedom/internal/gen"
)

func main() {
	eng := engine.New(engine.Config{CacheEntries: 64, Workers: 8})
	defer eng.Close()

	// A small fleet of bounded-expansion instances.
	for _, spec := range []struct {
		name   string
		n      int
		family string
	}{
		{"grid", 4096, "grid"},
		{"apollonian", 2000, "apollonian"},
		{"geometric", 2000, "geometric"},
	} {
		f, err := gen.FamilyByName(spec.family)
		if err != nil {
			log.Fatal(err)
		}
		g, _ := gen.LargestComponent(f.Generate(spec.n, 1))
		info, err := eng.Register(spec.name, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-10s n=%-5d m=%d\n", info.Name, info.N, info.M)
	}

	ctx := context.Background()

	// Cold vs warm: the first query pays for the order + wcol construction,
	// the second reuses the cached substrates.
	cold, err := eng.Do(ctx, engine.Request{Graph: "grid", Kind: engine.KindDominatingSet, R: 2})
	if err != nil {
		log.Fatal(err)
	}
	warm, err := eng.Do(ctx, engine.Request{Graph: "grid", Kind: engine.KindDominatingSet, R: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncold query: |D|=%d lb=%d wcol=%d in %.1fms (cache_hit=%v)\n",
		cold.Size, cold.LowerBound, cold.Wcol, cold.ElapsedMS, cold.CacheHit)
	fmt.Printf("warm query: |D|=%d in %.2fms (cache_hit=%v, %.0f× faster)\n",
		warm.Size, warm.ElapsedMS, warm.CacheHit, cold.ElapsedMS/warm.ElapsedMS)

	// Single-flight: 16 concurrent identical queries on a fresh radius share
	// one substrate build.
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Do(ctx, engine.Request{Graph: "apollonian", Kind: engine.KindDominatingSet, R: 3}); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("\n16 concurrent identical queries finished in %v (one substrate build)\n",
		time.Since(start).Round(time.Millisecond))

	// A mixed batch across graphs and kinds, fanned over the pool.
	batch := []engine.Request{
		{Graph: "grid", Kind: engine.KindDominatingSet, R: 1},
		{Graph: "grid", Kind: engine.KindCover, R: 1},
		{Graph: "apollonian", Kind: engine.KindConnectedDominatingSet, R: 1},
		{Graph: "geometric", Kind: engine.KindDominatingSet, R: 1, Solver: "greedy"},
		{Graph: "grid", Kind: engine.KindDistributedDominatingSet, R: 1},
	}
	results := eng.Batch(ctx, batch)
	fmt.Println("\nbatch results:")
	for i, res := range results {
		if res.Err != nil {
			fmt.Printf("  [%d] %-11s error: %v\n", i, batch[i].Kind, res.Err)
			continue
		}
		extra := ""
		if res.Response.Rounds > 0 {
			extra = fmt.Sprintf(" rounds=%d", res.Response.Rounds)
		}
		fmt.Printf("  [%d] %-11s %-10s size=%-4d%s (%.1fms)\n",
			i, batch[i].Kind, batch[i].Graph, res.Response.Size, extra, res.Response.ElapsedMS)
	}

	st := eng.Stats()
	fmt.Printf("\nengine stats: %d queries, %d substrate builds, %d cache hits, %d coalesced\n",
		st.Queries, st.SubstrateBuilds, st.CacheHits, st.Coalesced)
	fmt.Printf("build time %.1fms total vs query time %.1fms total\n", st.BuildMSTotal, st.QueryMSTotal)
}
