package main

import (
	"strings"
	"testing"
	"time"
)

// TestParseConfig puts each numeric flag at its edge: the least value
// parseConfig accepts lands in the config, and one step below it is an
// error naming the flag, as is a stray positional argument.
func TestParseConfig(t *testing.T) {
	for _, c := range []struct {
		flag, ok, bad string
		got           func(config) any
		want          any
	}{
		{"workers", "1", "0", func(c config) any { return c.workers }, 1},
		{"queue", "1", "0", func(c config) any { return c.queue }, 1},
		{"max-body", "1", "0", func(c config) any { return c.maxBody }, int64(1)},
		{"timeout", "0s", "-1ns", func(c config) any { return c.timeout }, time.Duration(0)},
		{"drain-timeout", "0s", "-1ns", func(c config) any { return c.drain }, time.Duration(0)},
		{"rate-limit", "0", "-0.5", func(c config) any { return c.rateLimit }, 0.0},
		{"rate-burst", "0", "-1", func(c config) any { return c.rateBurst }, 0},
		{"job-workers", "0", "-1", func(c config) any { return c.jobs.workers }, 0},
		{"job-backlog", "0", "-1", func(c config) any { return c.jobs.backlog }, 0},
		{"job-attempts", "0", "-1", func(c config) any { return c.jobs.attempts }, 0},
		{"job-attempt-timeout", "0s", "-1ns", func(c config) any { return c.jobs.attemptTimeout }, time.Duration(0)},
		{"job-backoff", "0s", "-1ns", func(c config) any { return c.jobs.backoffBase }, time.Duration(0)},
		{"result-ttl", "0s", "-1ns", func(c config) any { return c.jobs.resultTTL }, time.Duration(0)},
		{"result-cap", "0", "-1", func(c config) any { return c.jobs.resultCap }, 0},
	} {
		cfg, err := parseConfig([]string{"-" + c.flag, c.ok})
		if err != nil {
			t.Errorf("-%s %s: %v", c.flag, c.ok, err)
		} else if got := c.got(cfg); got != c.want {
			t.Errorf("-%s %s: config holds %v, want %v", c.flag, c.ok, got, c.want)
		}
		if _, err := parseConfig([]string{"-" + c.flag, c.bad}); err == nil || !strings.HasPrefix(err.Error(), "-"+c.flag+" ") {
			t.Errorf("-%s %s: error %v, want one naming -%s", c.flag, c.bad, err, c.flag)
		}
	}
	if _, err := parseConfig([]string{"-rate-limit", "+Inf"}); err == nil || !strings.HasPrefix(err.Error(), "-rate-limit ") {
		t.Errorf("-rate-limit +Inf: error %v, want one naming -rate-limit", err)
	}
	if _, err := parseConfig([]string{"-workers", "2", "extra"}); err == nil || !strings.Contains(err.Error(), `unexpected argument "extra"`) {
		t.Errorf("stray argument: error %v", err)
	}
	cfg, err := parseConfig(nil)
	if err != nil || cfg != defaultConfig() {
		t.Errorf("no flags: %+v, %v; want the defaults", cfg, err)
	}
}
