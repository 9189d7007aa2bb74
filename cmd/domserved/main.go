// Command domserved serves domination queries over HTTP.
//
// It wraps the concurrent query engine of internal/engine: registered graphs
// share an LRU-bounded cache of weak-reachability orders, wcol measurements
// and neighborhood covers (built once per (graph, radius) even under
// concurrent load), and queries run on a bounded worker pool with per-query
// timeouts.
//
// With -data-dir the daemon is durable: registrations are snapshotted,
// every applied delta is written ahead to a WAL before the mutation is
// acknowledged, a background checkpointer compacts the WAL into fresh
// snapshots, and a restart — graceful or kill -9 — recovers the exact
// pre-death topologies and answers queries byte-identically.
//
// Usage:
//
//	domserved                          # listen on :8377, in-memory only
//	domserved -addr :9000 -cache 256 -workers 8 -timeout 30s
//	domserved -data-dir /var/lib/domserved -checkpoint-interval 1m
//
// Endpoints (all JSON):
//
//	POST   /graphs               {"name":"g","family":"grid","n":4096}
//	                             (an unknown family's 400 lists the families),
//	                             {"name":"g","n":3,"edges":[[0,1],[1,2]]},
//	                             a text/plain edge-list body with ?name=g,
//	                             or an application/x-ndjson stream:
//	                             {"name":"g","n":1000} then one [u,v] per line
//	GET    /graphs               list registered graphs
//	DELETE /graphs/{name}        unregister
//	POST   /graphs/{name}/edges  {"add":[[0,5]],"remove":[[0,1]],"add_vertices":2}
//	POST   /query                {"graph":"g","kind":"domset","r":2}
//	POST   /batch                {"queries":[{...},{...}]}
//	POST   /admin/checkpoint     fold the WAL into fresh snapshots now
//	GET    /stats                cache and executor counters, per-graph
//	                             generations, persistence counters
//	GET    /healthz              tri-state readiness probe: 200 ok, 503
//	                             degraded (read-only, with reason) or 503
//	                             overloaded (admission queue full)
//
// Query kinds: domset, cds, cover, dist-domset, dist-cds.  The greedy
// baseline is the domset kind with "solver":"greedy".  The distributed
// kinds run in the model the paper states them for: dist-cds and the paper
// dist-domset in CONGEST_BC, dist-domset with "solver":"kubsv" in LOCAL.
// A query, batch or mutation body with an undeclared field is a 400 naming
// the field.
//
// Under failure the daemon degrades instead of dying: a failing data
// directory flips the engine read-only (mutations get 503 + Retry-After,
// queries keep serving), a full admission queue sheds queries with 503 after
// a bounded wait (-queue-wait), and handler or solver panics fail only their
// own request.  See DESIGN.md §12 for the failure model.
//
// On SIGINT/SIGTERM the daemon drains in-flight requests
// (http.Server.Shutdown with a timeout), then takes a final checkpoint and
// seals the WAL before exiting, so a graceful stop leaves a compact data
// directory that recovers without replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bedom/internal/engine"
	"bedom/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", ":8377", "listen address")
		cache    = flag.Int("cache", 128, "substrate cache capacity (LRU entries)")
		workers  = flag.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "queued-query bound (0 = 4×workers)")
		queueW   = flag.Duration("queue-wait", 0, "how long a query may wait for a queue slot before being shed with 503 (0 = 500ms, negative = shed immediately)")
		timeout  = flag.Duration("timeout", 0, "default per-query timeout (0 = none)")
		subWkrs  = flag.Int("substrate-workers", 0, "goroutines per substrate build and per simulator round (0 = GOMAXPROCS; outputs are identical for any value)")
		dataDir  = flag.String("data-dir", "", "data directory for durable persistence (empty = in-memory only)")
		ckptIntv = flag.Duration("checkpoint-interval", time.Minute, "background WAL-compaction cadence for -data-dir (0 = only explicit /admin/checkpoint)")
		pprofAdr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it off the public listener)")
		slowQry  = flag.Duration("slow-query", 0, "log a full span trace for requests at least this slow (0 = disabled)")
	)
	flag.Parse()

	cfg := engine.Config{
		CacheEntries:       *cache,
		Workers:            *workers,
		QueueDepth:         *queue,
		QueueWaitBudget:    *queueW,
		DefaultTimeout:     *timeout,
		SubstrateWorkers:   *subWkrs,
		CheckpointInterval: *ckptIntv,
		// One process-wide registry: the engine, the dist simulator (which
		// always records into obs.Default) and the HTTP middleware all land
		// in the same GET /metrics scrape.
		Metrics: obs.Default(),
	}
	var (
		eng *engine.Engine
		err error
	)
	if *dataDir != "" {
		eng, err = engine.Open(*dataDir, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "domserved:", err)
			os.Exit(1)
		}
		st := eng.Stats()
		log.Printf("domserved: data dir %s: recovered %d graph(s), replayed %d WAL record(s)",
			*dataDir, st.Graphs, st.Persist.ReplayedRecords)
	} else {
		eng = engine.New(cfg)
	}

	if *pprofAdr != "" {
		// pprof gets its own listener (and mux) so profiling endpoints are
		// never exposed on the serving address.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("domserved: pprof listening on %s", *pprofAdr)
			if err := http.ListenAndServe(*pprofAdr, pmux); err != nil {
				log.Printf("domserved: pprof server: %v", err)
			}
		}()
	}

	srv := newHTTPServer(*addr, newServer(eng, serverOptions{Metrics: obs.Default(), SlowQuery: *slowQry}), 0)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("domserved: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		log.Print("domserved: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("domserved: shutdown: %v", err)
		}
		// Final durability pass after the HTTP surface has drained: fold the
		// WAL into fresh snapshots so the next start recovers without
		// replay.  Engine.Close then seals the WAL (flushing any tail) and
		// releases the data directory.
		if *dataDir != "" {
			if info, err := eng.Checkpoint(); err != nil {
				log.Printf("domserved: final checkpoint: %v", err)
			} else {
				log.Printf("domserved: final checkpoint: %d graph(s) snapshotted, %d WAL segment(s) removed",
					info.Graphs, info.SegmentsRemoved)
			}
		}
		eng.Close()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "domserved:", err)
			os.Exit(1)
		}
	}
}
