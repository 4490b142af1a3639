package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dip"
)

// config is one benchmark run.
type config struct {
	// root is the repository checkout the programs are built from;
	// workDir receives binaries and logs, which are kept only when the run
	// fails.
	root, workDir string
	spec          *benchSpec
	workloads     []*workload
	seed          int64
	trace         bool
	warmup        time.Duration
	window        time.Duration
	closedWindows int
	openWindows   int
	// setups is how many times each process set is booted; setup_s is
	// the median and the last boot serves the load.
	setups int
}

// closedWin is one closed-loop window of one workload.
type closedWin struct {
	lat     []sample
	elapsed time.Duration
	cpu     time.Duration
}

// wstate is everything one run learns about one workload.
type wstate struct {
	w  *workload
	s  *stream
	ps *procSet
	ld *loader
	// slowAt is the machine's slowness at an instant; setupSlow and
	// traceSlow are its slowness during the boots and during the traced
	// replay (see calibrate.go).
	slowAt    func(time.Time) float64
	setups    []float64
	setupSlow float64
	traceSlow float64
	closed    []closedWin
	open      []openResult
	before    *serverMetrics
	after     *serverMetrics
	rss       int64
	reruns    int
	trace     *traceRun
	errs      []string
	stopped   bool
}

// run boots every workload's processes, drives their windows round-robin
// so that a slow spell of the shared machine hits every workload alike,
// and checks every answer.
func run(ctx context.Context, cfg config) (*results, [][]span, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	bins := filepath.Join(dir, "bin")
	if err := buildPrograms(ctx, cfg.root, bins); err != nil {
		return nil, nil, err
	}

	probe := startProbe()
	defer probe.Stop()
	states := make([]*wstate, len(cfg.workloads))
	defer func() {
		for _, st := range states {
			if st != nil && st.ps != nil && !st.stopped {
				_ = st.ps.stop() // an error path already has its error
			}
		}
	}()
	each := func(f func(*wstate) error) error {
		for _, st := range states {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(st); err != nil {
				return fmt.Errorf("%s: %w", st.w.Name, err)
			}
		}
		return nil
	}

	started := time.Now()
	for i, w := range cfg.workloads {
		st := &wstate{w: w, s: newStream(w, cfg.seed), slowAt: probe.slownessAt}
		states[i] = st
		bootStart := time.Now()
		for k := 0; k < cfg.setups; k++ {
			ps, d, err := boot(ctx, bins, filepath.Join(dir, w.Name, fmt.Sprintf("boot%d", k)), st.s, int64(-1-k))
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			st.setups = append(st.setups, d.Seconds())
			if k < cfg.setups-1 {
				if err := ps.stop(); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
				}
				continue
			}
			st.ps = ps
		}
		st.setupSlow = probe.slowness(bootStart, time.Now())
		st.ld = newLoader(st.s, st.ps.url)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	steps := []func(*wstate) error{
		func(st *wstate) error { closedLoop(cfg.warmup, st.ld.fire); return nil },
		func(st *wstate) (err error) { st.before, err = scrape(client, st.ps.url); return err },
	}
	for k := 0; k < cfg.closedWindows; k++ {
		steps = append(steps, func(st *wstate) error {
			c0, err := setCPU(st.ps)
			if err != nil {
				return err
			}
			lat, elapsed := closedLoop(cfg.window, st.ld.fire)
			c1, err := setCPU(st.ps)
			st.closed = append(st.closed, closedWin{lat: lat, elapsed: elapsed, cpu: c1 - c0})
			return err
		})
	}
	steps = append(steps, func(st *wstate) (err error) { st.after, err = scrape(client, st.ps.url); return err })
	for k := 0; k < cfg.openWindows; k++ {
		steps = append(steps, func(st *wstate) error {
			st.open = append(st.open, openLoop(st.w.Rate, cfg.window, probe.slownessNow, st.ld.fire))
			return nil
		})
	}
	for _, step := range steps {
		if err := each(step); err != nil {
			return nil, nil, err
		}
	}

	err = each(func(st *wstate) error {
		for _, p := range st.ps.all() {
			rss, err := peakRSS(p.pid())
			if err != nil {
				return err
			}
			st.rss += rss
		}
		st.reruns = st.ld.rerun()
		if !cfg.trace {
			return nil
		}
		var fleet *dip.Fleet
		if st.w.fleet() {
			f, err := dip.DialFleet(st.ps.peerAddrs, dip.FleetOptions{})
			if err != nil {
				return err
			}
			defer f.Close()
			fleet = f
		}
		start := time.Now()
		tr, err := traceWorkload(ctx, st.s, fleet, st.ld.kept)
		st.trace, st.traceSlow = tr, probe.slowness(start, time.Now())
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, st := range states {
		st.stopped = true
		if err := st.ps.stop(); err != nil {
			st.errs = append(st.errs, err.Error())
		}
	}

	res := &results{Schema: resultsSchema, Provenance: provenanceOf(cfg, started)}
	var spans [][]span
	for _, st := range states {
		wr, err := st.result(cfg.spec)
		if err != nil {
			return nil, nil, err
		}
		res.Workloads = append(res.Workloads, wr)
		var sp []span
		if st.trace != nil {
			sp = st.trace.spans
		}
		spans = append(spans, sp)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, errors.Join(errors.New("removing the work directory"), err)
	}
	return res, spans, nil
}
