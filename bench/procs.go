package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dip"
	"dip/internal/network"
	"dip/internal/obs"
)

// buildPrograms compiles dipserve and dippeer from the checkout at root
// into dir, before anything is timed.
func buildPrograms(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/dipserve", "./cmd/dippeer")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building dipserve and dippeer: %v\n%s", err, out)
	}
	return nil
}

// proc is one started program; its output goes to a log file so that the
// benchmark's own standard output stays machine-readable.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	path string
}

func startProc(dir, name, bin string, args ...string) (*proc, error) {
	path := filepath.Join(dir, name+".log")
	logf, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// A benchmark killed outright must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return &proc{name: name, cmd: cmd, log: logf, path: path}, nil
}

// drainGrace bounds a SIGTERM drain before the process is killed.
const drainGrace = 15 * time.Second

// stop sends SIGTERM, waits for the drain and reports an unclean exit.
func (p *proc) stop() error {
	defer p.log.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reported by Wait
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s exited uncleanly after SIGTERM: %v (log %s)", p.name, err, p.path)
		}
		return nil
	case <-time.After(drainGrace):
		_ = p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s did not drain within %v (log %s)", p.name, drainGrace, p.path)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// procSet is one workload's processes: dipserve, plus its peers when the
// workload places nodes on a fleet.
type procSet struct {
	server    *proc
	peers     []*proc
	url       string
	peerAddrs []string
}

func (ps *procSet) all() []*proc {
	out := append([]*proc(nil), ps.peers...)
	if ps.server != nil {
		out = append([]*proc{ps.server}, out...)
	}
	return out
}

// stop drains dipserve before its peers, so the fleet closes its sessions
// before the peers go away.
func (ps *procSet) stop() error {
	var errs []error
	for _, p := range ps.all() {
		errs = append(errs, p.stop())
	}
	return errors.Join(errs...)
}

// boot starts a workload's processes in dir and returns once the first
// request has been answered with a valid accepting report. The returned
// duration, spawn to that first answer, is one setup_s sample.
func boot(ctx context.Context, bins, dir string, s *stream, probe int64) (*procSet, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	ps := &procSet{}
	fail := func(err error) (*procSet, time.Duration, error) {
		_ = ps.stop() // the boot error is the one worth reporting
		return nil, 0, err
	}
	deadline := start.Add(30 * time.Second)
	for i := 0; i < s.w.Peers; i++ {
		name := fmt.Sprintf("dippeer%d", i)
		p, err := startProc(dir, name, filepath.Join(bins, "dippeer"),
			"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, name+".addr"))
		if err != nil {
			return fail(err)
		}
		ps.peers = append(ps.peers, p)
	}
	for _, p := range ps.peers {
		addr, err := waitAddr(ctx, filepath.Join(dir, p.name+".addr"), deadline)
		if err != nil {
			return fail(fmt.Errorf("%s: %w (log %s)", p.name, err, p.path))
		}
		ps.peerAddrs = append(ps.peerAddrs, addr)
	}
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "dipserve.addr"),
		"-workers", strconv.Itoa(workers), "-queue", strconv.Itoa(queueDepth)}
	if len(ps.peerAddrs) > 0 {
		args = append(args, "-peers", strings.Join(ps.peerAddrs, ","))
	}
	srv, err := startProc(dir, "dipserve", filepath.Join(bins, "dipserve"), args...)
	if err != nil {
		return fail(err)
	}
	ps.server = srv
	addr, err := waitAddr(ctx, filepath.Join(dir, "dipserve.addr"), deadline)
	if err != nil {
		return fail(fmt.Errorf("dipserve: %w (log %s)", err, srv.path))
	}
	ps.url = "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(ps.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(fmt.Errorf("dipserve never became ready (log %s)", srv.path))
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := client.Post(ps.url+"/v1/run", "application/json", bytes.NewReader(s.body(probe)))
	if err != nil {
		return fail(fmt.Errorf("setup probe: %w", err))
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(fmt.Errorf("setup probe: %w", err))
	}
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("setup probe: status %d: %s", resp.StatusCode, bytes.TrimSpace(data)))
	}
	elapsed := time.Since(start)
	if err := checkReport(s, probe, data); err != nil {
		return fail(fmt.Errorf("setup probe: %w", err))
	}
	return ps, elapsed, nil
}

// waitAddr polls for the address file a program writes once it listens.
// The file is complete when it ends in a newline.
func waitAddr(ctx context.Context, path string, deadline time.Time) (string, error) {
	for {
		data, err := os.ReadFile(path)
		if err == nil && bytes.HasSuffix(data, []byte("\n")) {
			return strings.TrimSpace(string(data)), nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return "", fmt.Errorf("no listen address in %s", path)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkReport is the per-answer correctness gate: the body must decode as
// a valid dip-report/v1 document for exactly the request sent, and the
// honest prover must have been accepted.
func checkReport(s *stream, i int64, body []byte) error {
	rep, err := dip.DecodeWireReport(bytes.NewReader(body))
	if err != nil {
		return err
	}
	switch {
	case rep.Protocol != s.protocol(i) || rep.Seed != s.reqSeed(i) || rep.Nodes != s.w.N:
		return fmt.Errorf("request %d: report for %s/seed %d/n %d, sent %s/seed %d/n %d",
			i, rep.Protocol, rep.Seed, rep.Nodes, s.protocol(i), s.reqSeed(i), s.w.N)
	case !rep.Accepted:
		return fmt.Errorf("request %d: honest prover rejected by nodes %v", i, rep.RejectingNodes)
	}
	return nil
}

// serverMetrics is the part of dipserve's /metrics document the per-layer
// metrics are computed from.
type serverMetrics struct {
	Service   obs.ServiceMetrics       `json:"service"`
	Engine    obs.Metrics              `json:"engine"`
	StatePool network.PoolStats        `json:"state_pool"`
	Caches    []obs.CacheMetricsRecord `json:"caches"`
	Fleet     *dip.FleetStats          `json:"fleet"`
}

func scrape(client *http.Client, url string) (*serverMetrics, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &m, nil
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// cpuTime is the user plus system time the process has used so far.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	// utime and stime are fields 14 and 15, i.e. 12 and 13 after ")".
	i := bytes.LastIndexByte(data, ')')
	var fields []string
	if i >= 0 {
		fields = strings.Fields(string(data[i+1:]))
	}
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS is the process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// setCPU sums cpuTime over a process set.
func setCPU(ps *procSet) (time.Duration, error) {
	var total time.Duration
	for _, p := range ps.all() {
		d, err := cpuTime(p.pid())
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}
