package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/big"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are virtual and shared, and what a
// CPU second buys changes by up to twofold within seconds: in the seed
// study a dipserve request cost between 6 and 14 ms of its own CPU time
// from one second to the next on identical code, with steal time near
// zero. So while the benchmark measures, a probe runs a fixed amount of
// standard-library work (hashing, big-number arithmetic, JSON, sorting) at
// a low duty cycle and times it in thread CPU time, which a wait for a
// core does not inflate. The times of each window are divided by how
// much slower than refProbe the probe ran during that window, and its
// throughput multiplied. The probe shares no code with the repository, so
// a change to the repository moves the scaled numbers and a slow spell of
// the machine does not; the unscaled numbers are kept in results.json.

// refProbe is about the median CPU time of one probe unit in the seed
// study. It only sets the scale: a request answered while the probe ran at
// this speed is reported unscaled.
const refProbe = 400 * time.Microsecond

// probePeriod is the gap between probe units: with a unit of 0.3 to 0.6 ms
// the probe takes 1.5 to 3% of one core.
const probePeriod = 20 * time.Millisecond

// probeData is the fixed input of the probe unit.
var probeData = struct {
	buf            []byte
	ints           []int
	doc            probeDoc
	base, exp, mod *big.Int
}{}

type probeDoc struct {
	Name   string    `json:"name"`
	Rounds []int     `json:"rounds"`
	Values []float64 `json:"values"`
}

func init() {
	d := &probeData
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	d.buf = make([]byte, 16<<10)
	for i := range d.buf {
		d.buf[i] = byte(next())
	}
	d.ints = make([]int, 2048)
	for i := range d.ints {
		d.ints[i] = int(next() >> 1)
	}
	d.doc.Name = "probe"
	for i := 0; i < 64; i++ {
		d.doc.Rounds = append(d.doc.Rounds, int(next()%1000))
		d.doc.Values = append(d.doc.Values, float64(next()%100000)/7)
	}
	d.base = new(big.Int).SetUint64(next())
	d.exp = new(big.Int).Lsh(new(big.Int).SetUint64(next()), 128)
	d.mod = new(big.Int).Lsh(big.NewInt(1), 255)
	d.mod.Sub(d.mod, big.NewInt(19))
}

// probeSink keeps the probe's work from being optimised away.
var probeSink [sha256.Size]byte

// probeUnit is the fixed reference work.
func probeUnit() {
	d := &probeData
	sum := sha256.Sum256(d.buf)
	r := new(big.Int)
	for i := 0; i < 6; i++ {
		r.Exp(d.base, d.exp, d.mod)
	}
	var doc probeDoc
	for i := 0; i < 3; i++ {
		b, _ := json.Marshal(&d.doc) // a fixed document of numbers always marshals
		_ = json.Unmarshal(b, &doc)  // its own output always decodes
	}
	ints := slices.Clone(d.ints)
	slices.Sort(ints)
	sum[0] ^= byte(r.Bit(0)) ^ byte(ints[0]) ^ byte(len(doc.Rounds))
	probeSink = sum
}

// threadCPU is the calling OS thread's CPU time, read from the thread's
// CPU-time clock. getrusage(RUSAGE_THREAD) would not do: it is brought up
// to date only at scheduler ticks and switches, so it reads the same
// before and after a unit shorter than a tick.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

type probeSample struct {
	at  time.Time
	cpu time.Duration
}

// speedProbe runs probe units every probePeriod until stopped.
type speedProbe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []probeSample
}

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	// Thread CPU time is only meaningful while the goroutine keeps its
	// thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		c0 := threadCPU()
		probeUnit()
		s := probeSample{at: time.Now(), cpu: threadCPU() - c0}
		if s.cpu <= 0 {
			continue // no thread clock: leave the times unscaled
		}
		p.mu.Lock()
		p.samples = append(p.samples, s)
		p.mu.Unlock()
	}
}

// Stop ends the probe and waits for it.
func (p *speedProbe) Stop() {
	close(p.stop)
	<-p.done
}

// probeSpan is how far either side of an instant the probe samples that
// estimate the machine's slowness at that instant reach: wide enough to
// hold some thirty samples, narrow enough to follow the changes of speed
// seen from one second to the next.
const probeSpan = 300 * time.Millisecond

// slowness is how much slower than refProbe the probe ran between from and
// to: the median unit CPU time of the samples taken then, over refProbe;
// 1 when there are none.
func (p *speedProbe) slowness(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := sort.Search(len(p.samples), func(i int) bool { return !p.samples[i].at.Before(from) })
	hi := sort.Search(len(p.samples), func(i int) bool { return p.samples[i].at.After(to) })
	if lo >= hi {
		return 1
	}
	in := make([]float64, 0, hi-lo)
	for _, s := range p.samples[lo:hi] {
		in = append(in, float64(s.cpu))
	}
	return median(in) / float64(refProbe)
}

// slownessAt is the machine's slowness around t.
func (p *speedProbe) slownessAt(t time.Time) float64 {
	return p.slowness(t.Add(-probeSpan), t.Add(probeSpan))
}

// slownessNow is the machine's slowness over the last probeSpan.
func (p *speedProbe) slownessNow() float64 {
	now := time.Now()
	return p.slowness(now.Add(-probeSpan), now)
}
