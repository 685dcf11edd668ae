// Command lpmemd serves the DATE'03 reproduction experiments over HTTP.
// Results are computed on a bounded parallel worker pool, cached by
// experiment ID + registry version, and exposed as JSON.
//
// Usage:
//
//	lpmemd [-addr :8093] [-parallel N] [-timeout 2m] [-retries 2]
//	       [-breaker-threshold 3] [-breaker-cooldown 30s]
//	       [-request-timeout 5m]
//	       [-store results.jsonl] [-sweep-store sweeps.jsonl]
//	       [-admit N] [-admit-queue N] [-service-delay 0]
//	       [-access-log path|-]
//
// Endpoints:
//
//	GET  /experiments        list the registry
//	GET  /experiments/E7     run (or serve cached/stored) one experiment
//	POST /run?ids=E1,E7      run a batch in parallel ("all" = registry);
//	                         &stream=1 streams per-result SSE events
//	POST /sweeps             start a design-space sweep in the background;
//	                         ?stream=1 follows its progress over SSE
//	GET  /sweeps             list accepted sweeps
//	GET  /sweeps/spaces      list the sweepable design spaces
//	GET  /sweeps/S1          sweep status + Pareto frontier when settled;
//	                         ?stream=1 follows progress over SSE
//	GET  /metrics            engine + HTTP + admission + store counters
//	GET  /healthz            health probe; 503 "degraded" while any
//	                         experiment's circuit breaker is open
//
// Horizontal scaling: -store points replicas at one shared append-only
// result file, so an experiment computed by any replica is served warm
// by all of them; -sweep-store does the same for sweep evaluations.
// -admit bounds how many requests run at once (with -admit-queue more
// allowed to wait); beyond that the replica sheds load with 429 +
// Retry-After instead of letting latency collapse. -service-delay adds
// a synthetic per-admitted-request delay for load experiments on small
// hosts; production deployments leave it at 0.
//
// Failed experiments degrade responses instead of killing them: batch
// bodies carry a per-ID error envelope and a status of ok/partial/failed,
// a failed attempt is retried at once up to -retries times, and
// repeatedly failing experiments trip a per-ID circuit breaker that
// fails fast until its cooldown expires.
//
// Accepted sweeps run one at a time, in acceptance order, on -parallel
// workers.
//
// The server drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lpmem"
	"lpmem/internal/httpapi"
	"lpmem/internal/resultstore"
	"lpmem/internal/runner"
	"lpmem/internal/sweep"
)

func main() {
	addr := flag.String("addr", ":8093", "listen address")
	parallel := flag.Int("parallel", 0, "experiment worker-pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-experiment attempt deadline (0 = none)")
	retries := flag.Int("retries", 2, "retry budget per experiment run (0 = no retries)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open an experiment's circuit breaker (0 = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long an open breaker fails fast before a probe")
	requestTimeout := flag.Duration("request-timeout", 5*time.Minute, "per-HTTP-request run deadline (0 = none)")
	storePath := flag.String("store", "", "shared result-store file for multi-replica serving (\"\" = none)")
	storeSync := flag.Bool("store-sync", false, "fsync the result store after every append")
	sweepStorePath := flag.String("sweep-store", "", "shared sweep-store file; \"\" keeps sweeps in memory")
	admit := flag.Int("admit", 0, "max concurrently admitted requests (0 = unbounded, admission disabled)")
	admitQueue := flag.Int("admit-queue", 0, "requests allowed to wait for an admission slot before shedding")
	serviceDelay := flag.Duration("service-delay", 0, "synthetic per-admitted-request delay for load experiments (0 = off)")
	accessLog := flag.String("access-log", "", "structured access-log destination: a path, or \"-\" for stderr")
	flag.Parse()

	eng := lpmem.NewEngine(runner.Options{
		Workers: *parallel, Timeout: *timeout,
		Retries:          *retries,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	})
	opts := []httpapi.Option{
		httpapi.WithRequestTimeout(*requestTimeout),
		httpapi.WithAdmission(*admit, *admitQueue),
		httpapi.WithServiceDelay(*serviceDelay),
	}
	if *storePath != "" {
		store, err := resultstore.Open(*storePath, resultstore.Options{Sync: *storeSync})
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpmemd: open result store: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = store.Close() }()
		opts = append(opts, httpapi.WithResultStore(store))
	}
	if *sweepStorePath != "" {
		ss, err := sweep.OpenStore(*sweepStorePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpmemd: open sweep store: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = ss.Close() }()
		opts = append(opts, httpapi.WithSweepStore(ss))
	}
	if *accessLog != "" {
		var w io.Writer = os.Stderr
		if *accessLog != "-" {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lpmemd: open access log: %v\n", err)
				os.Exit(1)
			}
			defer func() { _ = f.Close() }()
			w = f
		}
		opts = append(opts, httpapi.WithAccessLog(w))
	}
	api := httpapi.New(eng, opts...)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "lpmemd: serving %d experiments on %s (workers=%d, registry %s)\n",
		len(lpmem.Experiments()), *addr, eng.Workers(), lpmem.RegistryVersion)
	if *storePath != "" {
		fmt.Fprintf(os.Stderr, "lpmemd: shared result store %s\n", *storePath)
	}
	if *admit > 0 {
		fmt.Fprintf(os.Stderr, "lpmemd: admission capacity=%d queue=%d\n", *admit, *admitQueue)
	}

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "lpmemd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "lpmemd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "lpmemd: shutdown: %v\n", err)
		os.Exit(1)
	}
	m := eng.Metrics()
	fmt.Fprintf(os.Stderr, "lpmemd: done (executed=%d cache_hits=%d failures=%d)\n",
		m.Executed, m.CacheHits, m.Failures)
}
