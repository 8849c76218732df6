// Command treeschedd is the long-running scheduling service: an
// HTTP/JSON API over the paper's heuristics (internal/service).
//
// Usage:
//
//	treeschedd -addr :8080
//	curl -s localhost:8080/schedule -d '{"synthetic":{"seed":1,"nodes":1000}}'
//	curl -s localhost:8080/jobs -d '{"synthetic":{"seed":1,"nodes":1000}}'
//	curl -s localhost:8080/jobs/1
//	curl -s localhost:8080/statsz
//
// POST /schedule accepts a .tree payload ({"tree":"0 -1 1 1 1\n..."})
// or an instance spec (synthetic / grid2d / grid3d), plus heuristic,
// procs, mem or mem_factor, ao/eo, an optional perturbation model, and
// trace. POST /jobs enqueues the same request shape asynchronously —
// with optional retries (transient failures re-run with backoff) and
// deadline (seconds before a still-pending job fails with 504) — and
// answers 202 with a job id; GET /jobs/{id} polls the lifecycle
// (queued → running → done/failed) and carries the result or the
// failure. GET /healthz answers 200 ok or 503 degraded (queue near a
// backpressure cap, workers saturated, or shutting down); GET /statsz
// reports the cache / worker-pool / job-queue counters.
//
// On SIGINT/SIGTERM the daemon drains: new jobs are refused, pending
// ones run to completion inside the shutdown window, and — with
// -checkpoint-file set — whatever is still pending at the window's end
// is saved as JSON and resubmitted on the next boot.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		procs       = flag.Int("procs", 8, "default processor count per request")
		memFactor   = flag.Float64("memfactor", 2, "default memory bound as a multiple of the minimum sequential memory")
		maxNodes    = flag.Int("max-nodes", 1<<20, "largest accepted tree (413 beyond)")
		workers     = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cached      = flag.Int("cache", 256, "content-cache capacity in trees")
		cacheNodes  = flag.Int("cache-nodes", 1<<23, "content-cache capacity in total nodes")
		queuedJobs  = flag.Int("max-queued-jobs", 256, "async jobs queued or running before POST /jobs answers 429")
		queuedBytes = flag.Int64("max-queued-bytes", 1<<28, "payload bytes retained by queued/running async jobs before POST /jobs answers 429")
		trackJobs   = flag.Int("max-jobs", 4096, "async job records retained for polling (oldest finished evicted)")
		ckFile      = flag.String("checkpoint-file", "", "save async jobs still pending at shutdown here and resubmit them on the next boot")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for pending async jobs before checkpointing them")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); off when empty")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: treeschedd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, "treeschedd:", err)
			os.Exit(1)
		}
	}
	if err := run(*addr, &service.Options{
		Procs:          *procs,
		MemFactor:      *memFactor,
		MaxNodes:       *maxNodes,
		Workers:        *workers,
		MaxCachedTrees: *cached,
		MaxCachedNodes: *cacheNodes,
		MaxQueuedJobs:  *queuedJobs,
		MaxQueuedBytes: *queuedBytes,
		MaxTrackedJobs: *trackJobs,
	}, *ckFile, *drainWait, nil); err != nil {
		fmt.Fprintln(os.Stderr, "treeschedd:", err)
		os.Exit(1)
	}
}

// servePprof exposes net/http/pprof on its own listener, kept off the
// API address so profiling endpoints are never reachable through the
// public port (bind it to localhost). The profile mux is registered on
// a private ServeMux — importing net/http/pprof only for its handlers
// would pollute http.DefaultServeMux, which the API does not use but
// other imports might.
func servePprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "treeschedd: pprof on %s\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "treeschedd: pprof server:", err)
		}
	}()
	return nil
}

// restoreJobs resubmits the previous daemon's checkpointed jobs, if a
// checkpoint exists; the file is consumed either way (a corrupt one is
// reported, not looped on).
func restoreJobs(srv *service.Server, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "treeschedd: reading checkpoint %s: %v\n", path, err)
		}
		return
	}
	defer os.Remove(path)
	var reqs []service.Request
	if err := json.Unmarshal(b, &reqs); err != nil {
		fmt.Fprintf(os.Stderr, "treeschedd: corrupt checkpoint %s: %v\n", path, err)
		return
	}
	n := srv.RestoreJobs(reqs)
	fmt.Fprintf(os.Stderr, "treeschedd: restored %d of %d checkpointed jobs from %s\n", n, len(reqs), path)
}

// checkpointJobs saves the requests the drain window could not finish.
func checkpointJobs(pending []service.Request, path string) error {
	b, err := json.MarshalIndent(pending, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding checkpoint: %w", err)
	}
	// Write-then-rename so a crash mid-write cannot leave a half
	// checkpoint where the next boot expects a whole one.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// run serves until SIGINT/SIGTERM, then shuts down gracefully: the
// HTTP server stops taking connections and /streamz responses end,
// pending async jobs drain for up to drainWait, and — when ckFile is
// set — jobs still pending at the end of the window are checkpointed
// there for the next boot (which resubmits them before serving). When
// ready is non-nil it receives the bound listener before serving
// starts (tests use it to learn the port and to trigger shutdown).
func run(addr string, opts *service.Options, ckFile string, drainWait time.Duration, ready chan<- net.Listener) error {
	srv := service.New(opts)
	if ckFile != "" {
		restoreJobs(srv, ckFile)
	}
	hs := &http.Server{
		Addr:    addr,
		Handler: srv.Handler(),
		// The handler takes a worker-pool slot before reading the body,
		// so a slow client trickling bytes pins a slot for at most
		// ReadTimeout — the bound on how long one connection can starve
		// the pool. 60s admits an in-limit tree at ~2MB/s; raise it for
		// genuinely slow links, at the cost of longer starvation waves
		// from hostile tricklers. WriteTimeout is server-paced (traces
		// can be large) and stays generous.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "treeschedd: serving on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	// A /streamz handler returns only on drain, a closed bus or its client
	// leaving, so Shutdown would wait out its whole window on one
	// subscriber: close the bus as shutdown begins. Once the handlers are
	// gone nobody can subscribe, and Emit stays safe on a closed bus.
	hs.RegisterOnShutdown(srv.CloseStreams)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := hs.Shutdown(shutCtx)
	// Drain-or-checkpoint, whatever Shutdown reported: finish what the
	// window allows, save the rest.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainWait)
	defer cancelDrain()
	return errors.Join(shutErr, savePending(srv.Drain(drainCtx), ckFile))
}

// savePending checkpoints the jobs the drain window could not finish,
// or says that they are lost when no checkpoint file is configured.
func savePending(pending []service.Request, ckFile string) error {
	if len(pending) == 0 {
		return nil
	}
	if ckFile == "" {
		fmt.Fprintf(os.Stderr, "treeschedd: abandoning %d pending jobs (no -checkpoint-file)\n", len(pending))
		return nil
	}
	if err := checkpointJobs(pending, ckFile); err != nil {
		return fmt.Errorf("checkpointing %d pending jobs: %w", len(pending), err)
	}
	fmt.Fprintf(os.Stderr, "treeschedd: checkpointed %d pending jobs to %s\n", len(pending), ckFile)
	return nil
}
