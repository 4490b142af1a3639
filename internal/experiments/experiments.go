// Package experiments implements the evaluation harness: one runner per
// experiment in DESIGN.md's per-experiment index (E1–E9), each regenerating
// the corresponding table of EXPERIMENTS.md. The paper is a theory paper
// with no measurement section, so the "tables" are its theorems turned into
// measurements: communication-cost scalings, estimated acceptance
// probabilities with confidence intervals, and the packing-bound
// arithmetic.
package experiments

import (
	"fmt"
	"strings"

	"dip/internal/obs"
)

// Config controls experiment sizes.
type Config struct {
	// Seed derives all randomness; equal seeds reproduce tables exactly,
	// independent of worker count and scheduling (per-trial randomness is
	// derived from (Seed, salt, trial index) — see RunTrials).
	Seed int64
	// Quick shrinks instance sizes and trial counts for use in tests; the
	// published tables use Quick = false.
	Quick bool
	// Trials, when positive, overrides every experiment's per-cell trial
	// count (the -trials flag of cmd/dipbench).
	Trials int
	// Parallel caps the trial-harness worker count; 0 means GOMAXPROCS.
	Parallel int
	// Progress, when non-nil, receives live per-cell progress (trials
	// completed, ETA) from the trial harness; nil runs silently.
	Progress *obs.Reporter
	// Recorder, when non-nil, collects the structured Cell record of
	// every trial batch for machine-readable output (see ResultsFile).
	Recorder *Recorder
}

// Table is one experiment's result, renderable as an aligned text table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Table, error)
}

// All returns every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "Sym dMAM cost (Theorem 1.1)", E1SymDMAMCost},
		{"E2", "Sym dAM cost (Theorem 1.3)", E2SymDAMCost},
		{"E3", "NP vs AM separation (Theorem 1.2)", E3Separation},
		{"E4", "Packing lower bound (Theorem 1.4)", E4Packing},
		{"E5", "GNI dAMAM (Theorem 1.5)", E5GNI},
		{"E6", "Linear hash family (Theorem 3.2)", E6HashFamily},
		{"E7", "Adversarial soundness", E7Adversaries},
		{"E8", "Spanning-tree PLS building block", E8SpanTree},
		{"E9", "Ablation: challenge-first needs the giant prime", E9Ablation},
		{"E10", "GNI variants: round reduction, promise-free extension", E10GNIVariants},
		{"E11", "Randomized PLS fingerprinting ([4])", E11RPLS},
		{"E12", "Soundness under injected faults", E12FaultMatrix},
		{"E14", "Sym dAM modulus: per n vs per seed (Theorem 3.2)", E14ModulusChoice},
	}
}

// ByID returns the runner with the given (case-insensitive) ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}
