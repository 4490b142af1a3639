// Command dipserve is the project's verification service: a long-running
// HTTP server that accepts protocol-run requests (dip.Request as JSON),
// executes them on the shared pooled engine through dip.RunContext, and
// answers with dip-report/v1 documents.
//
//	POST /v1/run        {"protocol": "sym-dmam", "n": 6, "edges": [[0,1], ...], "options": {"seed": 1}}
//	POST /v1/jobs       same body, answered asynchronously: 202 + dip-job/v1 envelope
//	GET  /v1/jobs/{id}  job status; a done job embeds its dip-report/v1 result
//	GET  /v1/protocols  registry listing (name, family, rounds)
//	GET  /metrics       service + engine meters and state-pool statistics
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining) + queue/backlog depths
//
// Concurrency is bounded twice: at most -workers bodies (a /v1/run
// request, or a whole /v1/batch) run at once, each on its own handler
// goroutine, and at most -queue more wait in line for one of those run
// slots. A body that finds no place in line is answered 503 with a
// Retry-After hint at once instead of stacking goroutines, a body whose
// client leaves while it waits gives its place back at once, and every
// run carries a deadline (-timeout) that cancels the engine
// mid-protocol. SIGTERM/SIGINT starts a graceful drain: new requests get
// 503, waiting and running bodies finish (bounded by -drain-timeout),
// then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dip"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "dipserve: %v\n", err)
		os.Exit(2)
	}
	if err := serve(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dipserve: %v\n", err)
		os.Exit(1)
	}
}

// parseConfig parses the command line args (without the program name).
// A value out of range, or a positional argument, is an error naming it.
func parseConfig(args []string) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("dipserve", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", cfg.addr, "listen address (host:port; port 0 picks a free one)")
	fs.IntVar(&cfg.workers, "workers", cfg.workers, "bodies run at once (concurrency ceiling; a /v1/run request or a whole /v1/batch is one body)")
	fs.IntVar(&cfg.queue, "queue", cfg.queue, "bodies that may wait for a run slot (a body past workers+queue answers 503)")
	fs.DurationVar(&cfg.timeout, "timeout", cfg.timeout, "per-request run deadline (0 disables)")
	fs.Int64Var(&cfg.maxBody, "max-body", cfg.maxBody, "request body cap in bytes")
	fs.DurationVar(&cfg.drain, "drain-timeout", cfg.drain, "graceful shutdown bound")
	fs.StringVar(&cfg.addrFile, "addr-file", cfg.addrFile, "write the bound address to this file once listening")
	fs.StringVar(&cfg.peers, "peers", cfg.peers, "comma-separated dippeer addresses: place verifier nodes on that standing fleet instead of in-process")
	fs.Float64Var(&cfg.rateLimit, "rate-limit", cfg.rateLimit, "per-client requests/second budget; batch items count individually (0 disables)")
	fs.IntVar(&cfg.rateBurst, "rate-burst", cfg.rateBurst, "per-client token-bucket capacity (0 derives one second of budget)")
	fs.StringVar(&cfg.jobs.journal, "journal", cfg.jobs.journal, "job journal file: makes the async backlog survive SIGKILL (empty keeps jobs in memory)")
	fs.IntVar(&cfg.jobs.workers, "job-workers", cfg.jobs.workers, "async job workers (0 = ingest-only: accept and journal now, process on a later boot)")
	fs.IntVar(&cfg.jobs.backlog, "job-backlog", cfg.jobs.backlog, "pending job bound (full backlog answers 503; 0 = default)")
	fs.IntVar(&cfg.jobs.attempts, "job-attempts", cfg.jobs.attempts, "run attempts per job before it parks as poison (0 = default)")
	fs.DurationVar(&cfg.jobs.attemptTimeout, "job-attempt-timeout", cfg.jobs.attemptTimeout, "per-attempt deadline (0 inherits -timeout)")
	fs.DurationVar(&cfg.jobs.backoffBase, "job-backoff", cfg.jobs.backoffBase, "base retry backoff (doubles per attempt, jittered; 0 = default)")
	fs.DurationVar(&cfg.jobs.resultTTL, "result-ttl", cfg.jobs.resultTTL, "how long finished job results stay pollable (0 = default)")
	fs.IntVar(&cfg.jobs.resultCap, "result-cap", cfg.jobs.resultCap, "finished job records retained (oldest evicted beyond; 0 = default)")
	fs.Parse(args)

	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q: dipserve takes flags only", fs.Arg(0))
	}
	// Every numeric flag is checked against its floor: 1 for the three
	// that 0 would break, 0 for the rest.
	floor := map[string]float64{"workers": 1, "queue": 1, "max-body": 1}
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		var v float64
		switch x := f.Value.(flag.Getter).Get().(type) {
		case int:
			v = float64(x)
		case int64:
			v = float64(x)
		case float64:
			v = x
		case time.Duration:
			v = float64(x)
		default:
			return
		}
		if least := floor[f.Name]; err == nil && (!(v >= least) || math.IsInf(v, 1)) {
			err = fmt.Errorf("-%s %s: want a finite value >= %g", f.Name, f.Value, least)
		}
	})
	return cfg, err
}

func serve(cfg config) error {
	s, err := newServer(cfg)
	if err != nil {
		return err
	}
	if cfg.peers != "" {
		// Dial eagerly: a misconfigured fleet fails the boot, not the
		// first request. Lost peers redial transparently afterwards.
		fleet, err := dip.DialFleet(strings.Split(cfg.peers, ","), dip.FleetOptions{})
		if err != nil {
			return fmt.Errorf("dialing peer fleet: %w", err)
		}
		defer fleet.Close()
		s.useFleet(fleet)
		log.Printf("dipserve: serving from a %d-peer fleet", len(fleet.Addrs()))
	}
	s.start()
	if stats := s.async.table.Replayed(); stats.Pending+stats.Settled > 0 {
		log.Printf("dipserve: journal replayed %d pending, %d settled (%d expired, %d torn bytes cut)",
			stats.Pending, stats.Settled, stats.Expired, stats.TruncatedBytes)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	httpSrv := &http.Server{Handler: s.handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	log.Printf("dipserve: listening on %s (%d workers, queue %d, timeout %v)",
		ln.Addr(), s.cfg.workers, s.cfg.queue, cfg.timeout)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Drain: refuse new work, let the handlers (each running or waiting
	// with its own body) finish, then retire the job tier.
	log.Printf("dipserve: draining (bound %v)", cfg.drain)
	s.draining.Store(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	err = httpSrv.Shutdown(shutCtx)
	s.stop()
	log.Printf("dipserve: drained")
	return err
}
