package experiments

import (
	"strings"
	"testing"
)

// TestCheckAllocs pins the 10% rule every allocation budget shares. The
// limit for 2549 is 2803.9, so 2803 allocs/op is the last passing whole
// count (AllocsPerRun reports whole counts) and 2804 the first failing.
func TestCheckAllocs(t *testing.T) {
	rec := func(allocs float64) *AllocBench {
		return &AllocBench{Workload: "w", Nodes: 64, Trials: 50, AllocsPerOp: allocs}
	}
	cases := []struct {
		name     string
		recorded *AllocBench
		measured float64
		want     string // "" = passes
	}{
		{"missing record", nil, 2549, "no request_bench record"},
		{"zero record", rec(0), 2549, "not positive"},
		{"negative record", rec(-1), 2549, "not positive"},
		{"equal", rec(2549), 2549, ""},
		{"at the limit", rec(2549), 2803, ""},
		{"one above the limit", rec(2549), 2804, "exceeds recorded 2549.0"},
		{"fewer", rec(2549), 1272, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckAllocs("request_bench", tc.recorded, tc.measured)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("CheckAllocs failed: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("CheckAllocs passed, want an error mentioning %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
