// Command dippeer runs a verifier peer: one OS process hosting a slice of
// a proof's nodes behind the length-prefixed TCP protocol of
// internal/peer (wire protocol 4). A coordinator (cmd/dipsim -peers,
// dipserve -peers, or any other peer.Fleet caller) provisions each
// session with a binary hello — protocol parameters as a JSON dip.Request
// without edge lists, the run seed, and the hosted nodes' neighbor lists
// and inputs — so a peer process needs no configuration beyond an address
// to listen on. A session ends when the peer has written its decisions.
//
//	dippeer -addr 127.0.0.1:0 -addr-file peer0.addr
//
// The process serves sessions until SIGTERM/SIGINT, then stops accepting,
// drains in-flight sessions, logs "dippeer: drained", and exits 0.
//
// -fail-session k makes the process kill itself (exit 2) at the first
// exchange step of its k-th session: a crash-mid-round fault hook for
// harness tests like `make peer-smoke`, where a coordinator must observe
// a structured transport error rather than a hang. -fail-soft k instead
// aborts only the k-th session with a structured error — the rest of the
// process, including sessions concurrently multiplexed on the same
// connection, keeps serving: the isolation drill for fleet harnesses.
//
// -io-timeout bounds each session's frame exchanges and idle gaps; a
// coordinator that stalls longer has its session aborted (the trunk
// connection itself may stay idle indefinitely between sessions).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"dip"
	"dip/internal/network"
	"dip/internal/peer"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:0", "listen address (host:port; port 0 picks a free one)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening")
		failSession = flag.Int("fail-session", 0, "crash (exit 2) at the first exchange step of session k; 0 disables")
		failSoft    = flag.Int("fail-soft", 0, "abort session k with a structured error, keep serving the rest; 0 disables")
		ioTimeout   = flag.Duration("io-timeout", peer.DefaultIOTimeout, "per-session frame exchange and idle deadline")
		verbose     = flag.Bool("v", false, "log session lifecycle")
	)
	flag.Parse()

	if err := run(*addr, *addrFile, peer.Options{IOTimeout: *ioTimeout}, *failSession, *failSoft, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "dippeer: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, addrFile string, opts peer.Options, failSession, failSoft int, verbose bool) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	srv := &peer.Server{
		Build: func(params []byte) (*network.Spec, error) {
			var req dip.Request
			if err := json.Unmarshal(params, &req); err != nil {
				return nil, fmt.Errorf("decoding request params: %w", err)
			}
			return dip.BuildSpec(req)
		},
		Opts:        opts,
		FailSession: failSession,
		FailSoft:    failSoft,
	}
	if verbose {
		srv.Logf = log.Printf
	}

	log.Printf("dippeer: listening on %s", ln.Addr())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("dippeer: %v: draining", s)
		ln.Close()
		srv.Close()
		<-done
		log.Printf("dippeer: drained")
		return nil
	case err := <-done:
		srv.Close()
		return err
	}
}
