GO ?= go

.PHONY: verify lint vet build test examples race bench-vet smoke fuzz-short fault-smoke load-check chaos-smoke jobs-smoke peer-smoke fleet-smoke bench bench-check tables tables-quick clean

# verify is the tier-1 gate: lint, build, tests, the six example programs
# run end to end, the race check across the whole module (short mode
# keeps it minutes, not hours), vet and unit tests of the benchmark
# module, a results-file smoke round-trip that also
# requires the committed sidecars to regenerate byte-for-byte, the
# allocation-budget check of the engine and the full request path
# (bench-check, under a second), a short
# mutation burst on every decoder fuzz target,
# a fault-matrix smoke run, a live service round-trip (load-check:
# dipserve under a plain and a batch dipload with zero errors, no leaked
# work on /metrics, drained cleanly by SIGTERM), an adversarial
# chaos session against the live service (dipload -chaos), and the job-tier
# crash-replay drill (jobs-smoke: SIGKILL mid-backlog, restart, every
# job completes exactly once), the multi-process peer drill
# (peer-smoke: a real dippeer fleet must produce the byte-identical
# dip-report/v1, fail structurally when a peer dies, and drain cleanly),
# and the fleet-backed serving drill (fleet-smoke: dipserve -peers on a
# standing dippeer fleet, one peer killed mid-load, structured 502s and
# recovery on the survivors, clean drain end to end).
verify: lint build test examples race bench-vet smoke bench-check fuzz-short fault-smoke load-check chaos-smoke jobs-smoke peer-smoke fleet-smoke

# lint fails on unformatted files or vet findings.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples runs the six example programs. Each exits non-zero on an error
# or a wrong protocol outcome; `go test ./...` only compiles them.
examples:
	@for ex in quickstart separation gni adversary lowerbound extensions; do \
		$(GO) run ./examples/$$ex >/dev/null || { echo "examples/$$ex failed"; exit 1; }; \
	done; \
	echo "examples: ok"

# race covers every package: the peer fleet, the serving tiers and the
# trial-harness pool have real concurrency, and the rest is cheap under
# -short.
race:
	$(GO) test -race -short ./...

# bench-vet vets and unit-tests the benchmark module. bench/ is a module
# of its own (replace dip => ../), so the root's build, vet and test skip
# it, and a change to an API it calls would otherwise break it unseen.
# -short skips its end-to-end TestQuick.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# smoke regenerates the quick machine-readable benchmark file and requires
# it to be byte-identical to the committed BENCH_seed1.json (GOMAXPROCS=1,
# the setting the sidecar records), so a hand-edited or stale artifact —
# including either allocation budget — cannot sit in the tree; it then
# round-trips the file through the schema validator and schema-checks
# both committed results sidecars. The regenerated file lives in a
# directory of its own run, removed on exit, so two checkouts verified
# side by side on one host never compare each other's file.
smoke:
	@dir=$$(mktemp -d /tmp/dip-bench-smoke.XXXXXX); \
	trap 'rm -rf '"$$dir" EXIT; \
	GOMAXPROCS=1 $(GO) run ./cmd/dipbench -quick -seed 1 -progress=false -json $$dir/bench.json >/dev/null || exit 1; \
	cmp $$dir/bench.json BENCH_seed1.json || { echo "BENCH_seed1.json is stale: regenerate it with make tables"; exit 1; }; \
	$(GO) run ./cmd/dipbench -validate $$dir/bench.json || exit 1; \
	$(GO) run ./cmd/dipbench -validate BENCH_seed1.json FAULT_seed1.json

# fuzz-short gives each decoder fuzz target, and FuzzHashBits, a brief
# mutation burst on top of the checked-in seed corpus (go only allows one
# -fuzz pattern per invocation, hence the loop).
FUZZ_TIME ?= 2s
fuzz-short:
	@for target in FuzzReader FuzzRoundTrip FuzzHashBits FuzzSymDecoders FuzzDSymDecoder FuzzGNIDecoders FuzzLCPDecoders FuzzWireReport FuzzRequestDecode FuzzPeerSpec FuzzPeerFrame; do \
		pkg=./internal/core; \
		case $$target in \
			FuzzReader|FuzzRoundTrip) pkg=./internal/wire;; \
			FuzzHashBits) pkg=./internal/hashing;; \
			FuzzWireReport|FuzzRequestDecode|FuzzPeerSpec) pkg=.;; \
			FuzzPeerFrame) pkg=./internal/peer;; \
		esac; \
		$(GO) test -run xxx -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME) $$pkg || exit 1; \
	done

# fault-smoke runs the quick fault matrix (E12) end to end, requires the
# dip-fault/v1 file to be byte-identical to the committed FAULT_seed1.json
# (at GOMAXPROCS=1, like smoke), and round-trips it through the schema
# validator. Like smoke, it writes into a directory of its own run.
fault-smoke:
	@dir=$$(mktemp -d /tmp/dip-fault-smoke.XXXXXX); \
	trap 'rm -rf '"$$dir" EXIT; \
	GOMAXPROCS=1 $(GO) run ./cmd/dipbench -faults -quick -seed 1 -progress=false -json $$dir/fault.json >/dev/null || exit 1; \
	cmp $$dir/fault.json FAULT_seed1.json || { echo "FAULT_seed1.json is stale: regenerate it with make tables"; exit 1; }; \
	$(GO) run ./cmd/dipbench -validate $$dir/fault.json

# load-check exercises the request path end to end in both shapes: build
# dipserve and dipload, boot the service on an ephemeral port, run a short
# plain load over two protocols and a short batch load (dipload itself
# fails on a dropped connection, a wrong answer or nothing completed),
# require zero errors on both count lines, fail if the service then
# reports leaked work (non-zero in-flight or queue gauges on /metrics),
# and drain with SIGTERM: exit 0 and the drain marker in the log. The
# trap tears the server down even when a middle step fails.
load-check:
	@dir=$$(mktemp -d /tmp/dipload-check.XXXXXX); \
	$(GO) build -o $$dir/dipserve ./cmd/dipserve || exit 1; \
	$(GO) build -o $$dir/dipload ./cmd/dipload || exit 1; \
	$$dir/dipserve -addr 127.0.0.1:0 -addr-file $$dir/addr -workers 4 -queue 16 >$$dir/serve.log 2>&1 & \
	pid=$$!; \
	trap 'kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf '"$$dir" EXIT; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	[ -s $$dir/addr ] || { echo "dipserve never bound"; cat $$dir/serve.log; exit 1; }; \
	addr=$$(head -n1 $$dir/addr); \
	$$dir/dipload -url http://$$addr -protocol sym-dmam,sym-dam -n 32 -c 4 -requests 300 -seed 1 >$$dir/plain.out || { cat $$dir/plain.out $$dir/serve.log; exit 1; }; \
	$$dir/dipload -url http://$$addr -protocol sym-dmam -n 32 -c 4 -requests 200 -batch 25 -seed 1 >$$dir/batch.out || { cat $$dir/batch.out $$dir/serve.log; exit 1; }; \
	cat $$dir/plain.out $$dir/batch.out; \
	grep -q ' errors=0 ' $$dir/plain.out || { echo "plain load reported errors"; exit 1; }; \
	grep -q ' errors=0 ' $$dir/batch.out || { echo "batch load reported errors"; exit 1; }; \
	curl -sf http://$$addr/metrics >$$dir/metrics.json || { echo "metrics unreachable"; exit 1; }; \
	grep -q '"in_flight": 0' $$dir/metrics.json || { echo "in-flight gauge nonzero after load"; cat $$dir/metrics.json; exit 1; }; \
	grep -q '"queue_depth": 0' $$dir/metrics.json || { echo "queue gauge nonzero after load"; cat $$dir/metrics.json; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "dipserve exited non-zero after drain"; cat $$dir/serve.log; exit 1; }; \
	grep -q drained $$dir/serve.log || { echo "no drain marker in log"; cat $$dir/serve.log; exit 1; }; \
	echo "load-check: ok"

# chaos-smoke hardens the serving boundary: boot dipserve on an ephemeral
# port (with a generous rate limit so well-behaved smoke traffic is never
# quota-refused), fire a seed-deterministic adversarial session through
# `dipload -chaos` — malformed/truncated/oversized bodies, slowloris
# drips, disconnects, garbage framing — then require a clean SIGTERM
# drain and a panic-free server log. dipload itself gates on structured
# 4xx/5xx answers, drained gauges, and a settled goroutine count.
chaos-smoke:
	@dir=$$(mktemp -d /tmp/dip-chaos-smoke.XXXXXX); \
	$(GO) build -o $$dir/dipserve ./cmd/dipserve || exit 1; \
	$(GO) build -o $$dir/dipload ./cmd/dipload || exit 1; \
	$$dir/dipserve -addr 127.0.0.1:0 -addr-file $$dir/addr -workers 4 -queue 16 -rate-limit 500 >$$dir/serve.log 2>&1 & \
	pid=$$!; \
	trap 'kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf '"$$dir" EXIT; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	[ -s $$dir/addr ] || { echo "dipserve never bound"; cat $$dir/serve.log; exit 1; }; \
	addr=$$(head -n1 $$dir/addr); \
	$$dir/dipload -url http://$$addr -chaos 120 -c 6 -seed 1 || { cat $$dir/serve.log; exit 1; }; \
	$$dir/dipload -url http://$$addr -protocol sym-dmam -n 16 -c 2 -requests 20 -seed 2 >/dev/null || { echo "post-chaos load failed"; cat $$dir/serve.log; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "dipserve exited non-zero after chaos"; cat $$dir/serve.log; exit 1; }; \
	grep -q drained $$dir/serve.log || { echo "no drain marker in log"; cat $$dir/serve.log; exit 1; }; \
	if grep -qi panic $$dir/serve.log; then echo "panic in server log"; cat $$dir/serve.log; exit 1; fi; \
	echo "chaos-smoke: ok"

# jobs-smoke proves the crash-replay contract end to end. Boot 1 runs
# with a durable journal in ingest-only mode (-job-workers 0), so every
# submitted job is deterministically still pending when the server is
# SIGKILL'd — no graceful drain, no flush beyond the per-record journal
# write. Boot 2 reopens the same journal with workers, replays the
# backlog, and `dipload -jobs poll` requires every recorded job id to
# finish with a validated dip-job/v1 envelope whose report matches the
# submitted seed and protocol. The /metrics gates then pin "exactly
# once": completed equals the backlog size, nothing parked, no ack
# errors, and the replay marker in the log names the full backlog.
jobs-smoke:
	@dir=$$(mktemp -d /tmp/dip-jobs-smoke.XXXXXX); \
	$(GO) build -o $$dir/dipserve ./cmd/dipserve || exit 1; \
	$(GO) build -o $$dir/dipload ./cmd/dipload || exit 1; \
	$$dir/dipserve -addr 127.0.0.1:0 -addr-file $$dir/addr -workers 2 -journal $$dir/jobs.journal -job-workers 0 >$$dir/serve1.log 2>&1 & \
	pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf '"$$dir" EXIT; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	[ -s $$dir/addr ] || { echo "dipserve never bound"; cat $$dir/serve1.log; exit 1; }; \
	addr=$$(head -n1 $$dir/addr); \
	$$dir/dipload -url http://$$addr -jobs submit -jobs-file $$dir/ids -protocol sym-dmam,sym-dam -n 24 -c 4 -requests 40 -seed 1 || { cat $$dir/serve1.log; exit 1; }; \
	kill -9 $$pid; \
	wait $$pid 2>/dev/null; \
	rm -f $$dir/addr; \
	$$dir/dipserve -addr 127.0.0.1:0 -addr-file $$dir/addr -workers 2 -journal $$dir/jobs.journal -job-workers 4 >$$dir/serve2.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	[ -s $$dir/addr ] || { echo "dipserve never rebound"; cat $$dir/serve2.log; exit 1; }; \
	addr=$$(head -n1 $$dir/addr); \
	$$dir/dipload -url http://$$addr -jobs poll -jobs-file $$dir/ids -seed 1 || { cat $$dir/serve2.log; exit 1; }; \
	grep -q 'journal replayed 40 pending' $$dir/serve2.log || { echo "replay marker missing or wrong count"; cat $$dir/serve2.log; exit 1; }; \
	curl -sf http://$$addr/metrics >$$dir/metrics.json || { echo "metrics unreachable"; exit 1; }; \
	grep -q '"completed": 40' $$dir/metrics.json || { echo "completed != backlog (lost or doubled jobs)"; cat $$dir/metrics.json; exit 1; }; \
	grep -q '"parked": 0' $$dir/metrics.json || { echo "jobs parked as poison"; cat $$dir/metrics.json; exit 1; }; \
	grep -q '"ack_errors": 0' $$dir/metrics.json || { echo "journal refused settles"; cat $$dir/metrics.json; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "dipserve exited non-zero after drain"; cat $$dir/serve2.log; exit 1; }; \
	grep -q drained $$dir/serve2.log || { echo "no drain marker in log"; cat $$dir/serve2.log; exit 1; }; \
	echo "jobs-smoke: ok"

# peer-smoke proves the multi-process executor end to end. Boot four
# dippeer processes on ephemeral ports, run the same sym-dmam instance
# in-process and against the fleet, and require the two dip-report/v1
# files to be byte-identical (cmp, not a field diff — the pin is exact).
# Do the same for sym-dam, whose peers build their spec from the modulus
# the coordinator provisions: the in-process suites share one setup cache
# between coordinator and peers, so only here does each peer build it in
# a process of its own. And for sym-rpls, the one protocol with a Digest
# round: its peers' forward batches cross the sockets, and each peer
# derives its own seed-keyed modulus.
# Then boot a peer armed with -fail-session 1 (os.Exit mid-exchange on
# its first session), run against a fleet containing it, and require a
# non-zero exit with a structured transport-phase error on stderr — a
# dying peer must fail the run loudly, never hang or mis-answer. The
# healthy fleet must still serve a fresh session after the wreck, and a
# SIGTERM drain of every surviving peer must log its drain marker.
peer-smoke:
	@dir=$$(mktemp -d /tmp/dip-peer-smoke.XXXXXX); \
	$(GO) build -o $$dir/dippeer ./cmd/dippeer || exit 1; \
	$(GO) build -o $$dir/dipsim ./cmd/dipsim || exit 1; \
	pids=""; \
	trap 'kill -9 $$pids 2>/dev/null; rm -rf '"$$dir" EXIT; \
	for i in 1 2 3 4; do \
		$$dir/dippeer -addr 127.0.0.1:0 -addr-file $$dir/addr$$i >$$dir/peer$$i.log 2>&1 & \
		pids="$$pids $$!"; \
	done; \
	for i in 1 2 3 4; do \
		for t in $$(seq 1 100); do [ -s $$dir/addr$$i ] && break; sleep 0.1; done; \
		[ -s $$dir/addr$$i ] || { echo "peer $$i never bound"; cat $$dir/peer$$i.log; exit 1; }; \
	done; \
	addrs=$$(head -n1 $$dir/addr1),$$(head -n1 $$dir/addr2),$$(head -n1 $$dir/addr3),$$(head -n1 $$dir/addr4); \
	$$dir/dipsim -protocol sym-dmam -graph doubled -n 16 -seed 7 -json $$dir/inproc.json >/dev/null || exit 1; \
	$$dir/dipsim -protocol sym-dmam -graph doubled -n 16 -seed 7 -peers $$addrs -json $$dir/fleet.json >/dev/null || { echo "fleet run failed"; for i in 1 2 3 4; do cat $$dir/peer$$i.log; done; exit 1; }; \
	cmp $$dir/inproc.json $$dir/fleet.json || { echo "fleet report is not byte-identical to in-process"; exit 1; }; \
	$$dir/dipsim -protocol sym-dam -graph doubled -n 16 -seed 7 -json $$dir/inproc-dam.json >/dev/null || exit 1; \
	$$dir/dipsim -protocol sym-dam -graph doubled -n 16 -seed 7 -peers $$addrs -json $$dir/fleet-dam.json >/dev/null || { echo "sym-dam fleet run failed"; for i in 1 2 3 4; do cat $$dir/peer$$i.log; done; exit 1; }; \
	cmp $$dir/inproc-dam.json $$dir/fleet-dam.json || { echo "sym-dam fleet report is not byte-identical to in-process"; exit 1; }; \
	$$dir/dipsim -protocol sym-rpls -graph doubled -n 16 -seed 7 -json $$dir/inproc-rpls.json >/dev/null || exit 1; \
	$$dir/dipsim -protocol sym-rpls -graph doubled -n 16 -seed 7 -peers $$addrs -json $$dir/fleet-rpls.json >/dev/null || { echo "sym-rpls fleet run failed"; for i in 1 2 3 4; do cat $$dir/peer$$i.log; done; exit 1; }; \
	cmp $$dir/inproc-rpls.json $$dir/fleet-rpls.json || { echo "sym-rpls fleet report is not byte-identical to in-process"; exit 1; }; \
	$$dir/dippeer -addr 127.0.0.1:0 -addr-file $$dir/addrF -fail-session 1 >$$dir/peerF.log 2>&1 & \
	failpid=$$!; \
	for t in $$(seq 1 100); do [ -s $$dir/addrF ] && break; sleep 0.1; done; \
	[ -s $$dir/addrF ] || { echo "failing peer never bound"; cat $$dir/peerF.log; exit 1; }; \
	if $$dir/dipsim -protocol sym-dmam -graph doubled -n 16 -seed 7 -peers $$addrs,$$(head -n1 $$dir/addrF) >/dev/null 2>$$dir/fail.err; then \
		echo "run with a dying peer unexpectedly succeeded"; exit 1; \
	fi; \
	grep -q 'transport phase' $$dir/fail.err || { echo "no structured transport error:"; cat $$dir/fail.err; exit 1; }; \
	wait $$failpid; [ $$? -eq 2 ] || { echo "failing peer did not exit 2"; cat $$dir/peerF.log; exit 1; }; \
	$$dir/dipsim -protocol sym-dmam -graph doubled -n 16 -seed 7 -peers $$addrs -json $$dir/fleet2.json >/dev/null || { echo "healthy fleet broken after wreck"; exit 1; }; \
	cmp $$dir/inproc.json $$dir/fleet2.json || { echo "post-wreck fleet report diverged"; exit 1; }; \
	kill -TERM $$pids; \
	for p in $$pids; do wait $$p || { echo "peer $$p exited non-zero after drain"; exit 1; }; done; \
	for i in 1 2 3 4; do grep -q drained $$dir/peer$$i.log || { echo "no drain marker in peer $$i log"; cat $$dir/peer$$i.log; exit 1; }; done; \
	echo "peer-smoke: ok"

# fleet-smoke proves the fleet-backed serving tier end to end. Boot three
# dippeer processes and a dipserve pointed at them with -peers, then push
# the full request surface through the standing fleet: a plain load, a
# batch load, and an async jobs submit/poll round (all must finish with
# zero errors on dipload's count line). Then SIGKILL one peer while a
# second plain load is in flight: dipload must still exit cleanly (no
# dropped connections and no wrong answers — the failures are structured
# 502 answers, which it counts as errors), its count line must record a
# non-zero error count for the kill window, /readyz must stay 200 while
# naming the dead peer unreachable, and a fresh load against the
# two-peer remainder must complete with zero errors. The kill waits until
# the service's request counter has grown by 100 since the load started
# (service.requests: the only "requests" key at the second level of the
# indented /metrics document), so it lands mid-load however fast the
# fleet serves, and the kill load runs 8 clients against the 4 workers,
# so every worker always holds a run that the kill interrupts (with one
# client per worker, a worker between requests sometimes held none).
# Finally a SIGTERM drain of dipserve and both surviving peers must log
# every drain marker.
fleet-smoke:
	@dir=$$(mktemp -d /tmp/dip-fleet-smoke.XXXXXX); \
	$(GO) build -o $$dir/dippeer ./cmd/dippeer || exit 1; \
	$(GO) build -o $$dir/dipserve ./cmd/dipserve || exit 1; \
	$(GO) build -o $$dir/dipload ./cmd/dipload || exit 1; \
	pids=""; \
	trap 'kill -9 $$pids $$srvpid $$loadpid 2>/dev/null; rm -rf '"$$dir" EXIT; \
	for i in 1 2 3; do \
		$$dir/dippeer -addr 127.0.0.1:0 -addr-file $$dir/peer$$i.addr >$$dir/peer$$i.log 2>&1 & \
		eval p$$i=$$!; \
		pids="$$pids $$!"; \
	done; \
	for i in 1 2 3; do \
		for t in $$(seq 1 100); do [ -s $$dir/peer$$i.addr ] && break; sleep 0.1; done; \
		[ -s $$dir/peer$$i.addr ] || { echo "peer $$i never bound"; cat $$dir/peer$$i.log; exit 1; }; \
	done; \
	peers=$$(head -n1 $$dir/peer1.addr),$$(head -n1 $$dir/peer2.addr),$$(head -n1 $$dir/peer3.addr); \
	$$dir/dipserve -addr 127.0.0.1:0 -addr-file $$dir/addr -workers 4 -queue 16 -peers $$peers -journal $$dir/jobs.journal -job-workers 2 >$$dir/serve.log 2>&1 & \
	srvpid=$$!; \
	for t in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	[ -s $$dir/addr ] || { echo "dipserve never bound"; cat $$dir/serve.log; exit 1; }; \
	addr=$$(head -n1 $$dir/addr); \
	$$dir/dipload -url http://$$addr -protocol sym-dmam,sym-dam -n 24 -c 4 -requests 120 -seed 1 >$$dir/plain.out || { cat $$dir/plain.out $$dir/serve.log; exit 1; }; \
	$$dir/dipload -url http://$$addr -protocol sym-dmam -n 24 -c 4 -requests 100 -batch 20 -seed 2 >$$dir/batch.out || { cat $$dir/batch.out $$dir/serve.log; exit 1; }; \
	$$dir/dipload -url http://$$addr -jobs submit -jobs-file $$dir/ids -protocol sym-dmam -n 24 -c 4 -requests 30 -seed 3 || { cat $$dir/serve.log; exit 1; }; \
	$$dir/dipload -url http://$$addr -jobs poll -jobs-file $$dir/ids -seed 3 || { cat $$dir/serve.log; exit 1; }; \
	cat $$dir/plain.out $$dir/batch.out; \
	grep -q ' errors=0 ' $$dir/plain.out || { echo "healthy-fleet plain load reported errors"; exit 1; }; \
	grep -q ' errors=0 ' $$dir/batch.out || { echo "healthy-fleet batch load reported errors"; exit 1; }; \
	served() { curl -sf http://$$addr/metrics | sed -n 's/^    "requests": \([0-9]*\),$$/\1/p'; }; \
	base=$$(served); \
	[ -n "$$base" ] || { echo "no service.requests on /metrics"; exit 1; }; \
	$$dir/dipload -url http://$$addr -protocol sym-dmam -n 24 -c 8 -requests 1500 -seed 4 >$$dir/kill.out 2>&1 & \
	loadpid=$$!; \
	now=$$base; \
	for t in $$(seq 1 400); do \
		now=$$(served); \
		[ "$${now:-0}" -ge $$((base + 100)) ] && break; \
		sleep 0.025; \
	done; \
	[ "$${now:-0}" -ge $$((base + 100)) ] || { echo "kill load never reached 100 requests (at $$now, from $$base)"; cat $$dir/kill.out; exit 1; }; \
	kill -9 $$p1; \
	wait $$loadpid || { echo "load across the peer kill dropped connections or answered wrongly"; cat $$dir/kill.out $$dir/serve.log; exit 1; }; \
	cat $$dir/kill.out; \
	if grep -q ' errors=0 ' $$dir/kill.out; then \
		echo "no structured 502s observed across the peer kill"; exit 1; \
	fi; \
	curl -sf http://$$addr/readyz >$$dir/ready.json || { echo "readyz not 200 with one peer down"; exit 1; }; \
	grep -q '"unreachable"' $$dir/ready.json || { echo "readyz does not name the dead peer"; cat $$dir/ready.json; exit 1; }; \
	$$dir/dipload -url http://$$addr -protocol sym-dmam -n 24 -c 4 -requests 60 -seed 5 >$$dir/recover.out || { cat $$dir/recover.out $$dir/serve.log; exit 1; }; \
	cat $$dir/recover.out; \
	grep -q ' errors=0 ' $$dir/recover.out || { echo "fleet did not recover on the surviving peers"; exit 1; }; \
	kill -TERM $$srvpid; \
	wait $$srvpid || { echo "dipserve exited non-zero after drain"; cat $$dir/serve.log; exit 1; }; \
	grep -q drained $$dir/serve.log || { echo "no drain marker in dipserve log"; cat $$dir/serve.log; exit 1; }; \
	kill -TERM $$p2 $$p3; \
	for p in $$p2 $$p3; do wait $$p || { echo "peer $$p exited non-zero after drain"; exit 1; }; done; \
	for i in 2 3; do grep -q drained $$dir/peer$$i.log || { echo "no drain marker in peer $$i log"; cat $$dir/peer$$i.log; exit 1; }; done; \
	echo "fleet-smoke: ok"

# bench times the engine micro-benchmark (one echo round on a 256-node
# cycle, default executor).
bench:
	$(GO) test -run xxx -bench 'BenchmarkEngine' -benchmem -benchtime 2s .

# bench-check re-measures allocs/op of both reference workloads and fails
# on a >10% regression against the records in BENCH_seed1.json: the engine
# workload against engine_bench, the full request path against
# request_bench. smoke already pins both records byte-for-byte; this gate
# measures them in a process of their own.
bench-check:
	$(GO) run ./cmd/dipbench -bench-check BENCH_seed1.json

# tables regenerates every EXPERIMENTS.md table at full trial counts and
# the committed BENCH_seed1.json / FAULT_seed1.json sidecars (quick sizes
# at GOMAXPROCS=1, exactly what smoke and fault-smoke compare against).
tables:
	$(GO) run ./cmd/dipbench -seed 1
	$(GO) run ./cmd/dipbench -faults -seed 1
	GOMAXPROCS=1 $(GO) run ./cmd/dipbench -quick -seed 1 -progress=false -json BENCH_seed1.json >/dev/null
	GOMAXPROCS=1 $(GO) run ./cmd/dipbench -faults -quick -seed 1 -progress=false -json FAULT_seed1.json >/dev/null

tables-quick:
	$(GO) run ./cmd/dipbench -seed 1 -quick

clean:
	rm -f dip.test
