// HTTP-boundary chaos: the serving-stack sibling of the message-plane
// injectors. Where an Injector rewrites one engine delivery, an
// HTTPChaos scenario rewrites one HTTP exchange — malformed and
// truncated bodies, oversized uploads, slow-dripped requests, abrupt
// disconnects, garbage framing. The registry idiom mirrors the Class
// registry: scenarios are selected by name or seed-deterministically
// per exchange, so a chaos session is a pure function of its seed and
// reproducible across hosts (timings aside).
//
// Scenarios speak raw TCP rather than net/http: most of them are
// protocol violations an http.Client refuses to produce.
package faults

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"dip/internal/stats"
)

// HTTPOutcome classifies one chaos exchange as the scenario saw it.
type HTTPOutcome struct {
	// Status is the HTTP status the service answered, or 0 when the
	// exchange legitimately ended without a response (client-abort
	// scenarios).
	Status int
}

// HTTPChaos is one named adversarial client behavior at the HTTP
// serving boundary.
type HTTPChaos struct {
	// Name is the CLI-facing identifier, e.g. "malformed-json".
	Name string
	// Summary is a one-line description of the behavior.
	Summary string
	// WantResponse reports whether the scenario must be answered: true
	// means a healthy service answers a structured 4xx/5xx (anything
	// else — a 2xx, a dropped connection — is a hardening violation);
	// false means the client aborts the exchange itself, so the only
	// obligation on the service is to survive it.
	WantResponse bool
	// Run executes one exchange against addr (host:port). body is a
	// well-formed request body for POST /v1/run that the scenario
	// corrupts; rng is the exchange's private deterministic stream.
	Run func(rng *rand.Rand, addr string, body []byte) (HTTPOutcome, error)
}

// httpChaosRegistry lists every scenario, keyed by name.
var httpChaosRegistry = map[string]HTTPChaos{
	"malformed-json": {
		Name:         "malformed-json",
		Summary:      "valid request body with random bytes corrupted",
		WantResponse: true,
		Run:          runMalformedJSON,
	},
	"truncated-body": {
		Name:         "truncated-body",
		Summary:      "Content-Length promises more than is sent, then half-close",
		WantResponse: true,
		Run:          runTruncatedBody,
	},
	"oversized-body": {
		Name:         "oversized-body",
		Summary:      "body past the service cap (413/400 through MaxBytesReader)",
		WantResponse: true,
		Run:          runOversizedBody,
	},
	"slowloris": {
		Name:         "slowloris",
		Summary:      "body dripped in tiny delayed chunks, malformed at the tail",
		WantResponse: true,
		Run:          runSlowloris,
	},
	"disconnect": {
		Name:         "disconnect",
		Summary:      "client vanishes mid-body (no response owed)",
		WantResponse: false,
		Run:          runDisconnect,
	},
	"header-garbage": {
		Name:         "header-garbage",
		Summary:      "unparseable request framing (bad Content-Length, junk method)",
		WantResponse: true,
		Run:          runHeaderGarbage,
	},
}

// HTTPChaosNames returns all scenario names, sorted.
func HTTPChaosNames() []string {
	out := make([]string, 0, len(httpChaosRegistry))
	for name := range httpChaosRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HTTPChaosFor picks the scenario for exchange i of a seed-deterministic
// chaos session, with the exchange's private randomness stream — the
// HTTP-plane analogue of deliveryRNG. Tags 3 and 4 keep the key space
// disjoint from the message planes (1, 2).
func HTTPChaosFor(seed int64, i int) (HTTPChaos, *rand.Rand) {
	names := HTTPChaosNames()
	pick := deriveState(seed, 3, uint64(i)) % uint64(len(names))
	src := stats.SplitMix(deriveState(seed, 4, uint64(i)))
	rng := rand.New(&src)
	return httpChaosRegistry[names[pick]], rng
}

// chaosDialTimeout bounds the TCP dial; chaosExchangeTimeout bounds one
// whole exchange (the slowloris drip plus the service's answer).
const (
	chaosDialTimeout     = 2 * time.Second
	chaosExchangeTimeout = 15 * time.Second
)

// rawExchange dials addr, hands the connection to write, then reads and
// parses the response status line. A clean EOF without a response
// yields Status 0.
func rawExchange(addr string, write func(c *net.TCPConn) error) (HTTPOutcome, error) {
	conn, err := net.DialTimeout("tcp", addr, chaosDialTimeout)
	if err != nil {
		return HTTPOutcome{}, fmt.Errorf("dial %s: %w", addr, err)
	}
	tc := conn.(*net.TCPConn)
	defer tc.Close()
	if err := tc.SetDeadline(time.Now().Add(chaosExchangeTimeout)); err != nil {
		return HTTPOutcome{}, err
	}
	if err := write(tc); err != nil {
		// A write error is expected when the service already answered
		// and closed (oversized bodies); fall through to the read.
		_ = err
	}
	br := bufio.NewReader(tc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		// No parseable response: either the server closed without one
		// (fine for client-abort scenarios) or never answered.
		return HTTPOutcome{Status: 0}, nil
	}
	defer resp.Body.Close()
	return HTTPOutcome{Status: resp.StatusCode}, nil
}

// requestHead renders the head of a POST /v1/run with the given
// Content-Length line value.
func requestHead(contentLength string) []byte {
	return []byte("POST /v1/run HTTP/1.1\r\n" +
		"Host: chaos\r\n" +
		"Content-Type: application/json\r\n" +
		"Content-Length: " + contentLength + "\r\n" +
		"Connection: close\r\n\r\n")
}

func runMalformedJSON(rng *rand.Rand, addr string, body []byte) (HTTPOutcome, error) {
	// Corrupt a copy: cut the tail at a random point, or splatter a few
	// random bytes, or both — every variant fails the strict decoder.
	b := append([]byte(nil), body...)
	switch rng.Intn(3) {
	case 0:
		b = b[:1+rng.Intn(len(b)-1)]
	case 1:
		for k := 0; k < 3; k++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		b[0] = '}' // guarantee a syntax error even if the splatter landed harmlessly
	default:
		b = append(b[:1+rng.Intn(len(b)-1)], []byte("!!!{{{")...)
	}
	return rawExchange(addr, func(c *net.TCPConn) error {
		if _, err := c.Write(requestHead(fmt.Sprint(len(b)))); err != nil {
			return err
		}
		_, err := c.Write(b)
		return err
	})
}

func runTruncatedBody(rng *rand.Rand, addr string, body []byte) (HTTPOutcome, error) {
	// Promise the full body, deliver a prefix, then half-close: the
	// write side signals EOF but the read side stays open, so the
	// service's 400 (unexpected EOF from the decoder) is observable.
	sent := 1 + rng.Intn(len(body)/2)
	return rawExchange(addr, func(c *net.TCPConn) error {
		if _, err := c.Write(requestHead(fmt.Sprint(len(body)))); err != nil {
			return err
		}
		if _, err := c.Write(body[:sent]); err != nil {
			return err
		}
		return c.CloseWrite()
	})
}

// oversizedPadding comfortably exceeds cmd/dipserve's default 8 MiB
// body cap.
const oversizedPadding = 9 << 20

func runOversizedBody(rng *rand.Rand, addr string, body []byte) (HTTPOutcome, error) {
	// The padding must live INSIDE the first JSON value — a giant string
	// for a known field — because the decoder stops reading at the end of
	// that value: padding appended after a valid body would never be read
	// and the request would succeed. Reading through the string trips the
	// byte cap (413); against a server with a huge cap the string still
	// earns a 4xx as a nonsense protocol name.
	head := []byte(`{"protocol": "`)
	tail := []byte(`"}`)
	pad := bytes.Repeat([]byte{'x'}, 64<<10)
	total := len(head) + oversizedPadding + len(tail)
	return rawExchange(addr, func(c *net.TCPConn) error {
		if _, err := c.Write(requestHead(fmt.Sprint(total))); err != nil {
			return err
		}
		if _, err := c.Write(head); err != nil {
			return err
		}
		// The service answers (and stops reading) as soon as the cap
		// trips; subsequent writes fail with a reset. That is the
		// expected path, not an error.
		for sent := 0; sent < oversizedPadding; sent += len(pad) {
			if _, err := c.Write(pad); err != nil {
				return err
			}
		}
		_, err := c.Write(tail)
		return err
	})
}

func runSlowloris(rng *rand.Rand, addr string, body []byte) (HTTPOutcome, error) {
	// Drip the body a few bytes at a time with delays — long enough to
	// hold handler state across many read deadlines, short enough to
	// keep a chaos session brisk. The garbage prefix makes the eventual
	// answer a deterministic 4xx (a trailing corruption would never be
	// read: the decoder stops after the first JSON value).
	b := append([]byte("!garbage!"), body...)
	const chunks = 8
	delay := time.Duration(10+rng.Intn(20)) * time.Millisecond
	return rawExchange(addr, func(c *net.TCPConn) error {
		if _, err := c.Write(requestHead(fmt.Sprint(len(b)))); err != nil {
			return err
		}
		step := (len(b) + chunks - 1) / chunks
		for off := 0; off < len(b); off += step {
			end := off + step
			if end > len(b) {
				end = len(b)
			}
			if _, err := c.Write(b[off:end]); err != nil {
				return err
			}
			time.Sleep(delay)
		}
		return nil
	})
}

func runDisconnect(rng *rand.Rand, addr string, body []byte) (HTTPOutcome, error) {
	// Vanish mid-body: full close, no EOF courtesy, no response read.
	sent := 1 + rng.Intn(len(body)-1)
	conn, err := net.DialTimeout("tcp", addr, chaosDialTimeout)
	if err != nil {
		return HTTPOutcome{}, fmt.Errorf("dial %s: %w", addr, err)
	}
	tc := conn.(*net.TCPConn)
	_ = tc.SetDeadline(time.Now().Add(chaosExchangeTimeout))
	if _, err := tc.Write(requestHead(fmt.Sprint(len(body)))); err != nil {
		tc.Close()
		return HTTPOutcome{}, nil
	}
	_, _ = tc.Write(body[:sent])
	// SO_LINGER 0 turns the close into a hard RST — the rudest
	// realistic disconnect.
	_ = tc.SetLinger(0)
	tc.Close()
	return HTTPOutcome{Status: 0}, nil
}

func runHeaderGarbage(rng *rand.Rand, addr string, body []byte) (HTTPOutcome, error) {
	heads := [][]byte{
		[]byte("POST /v1/run HTTP/1.1\r\nHost: chaos\r\nContent-Length: notanumber\r\n\r\n"),
		[]byte("@@@@ /v1/run HTTP/1.1\r\nHost: chaos\r\n\r\n"),
		[]byte("POST /v1/run HTTP/1.1\r\nHost: chaos\r\nTransfer-Encoding: bogus\r\n\r\n"),
		[]byte("POST /v1/run HTTP/9.9\r\nHost: chaos\r\n\r\n"),
		[]byte("POST /v1/run HTTP/1.1\r\nHost chaos no colon\r\n\r\n"),
	}
	head := heads[rng.Intn(len(heads))]
	return rawExchange(addr, func(c *net.TCPConn) error {
		_, err := c.Write(head)
		return err
	})
}
