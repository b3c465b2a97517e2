// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment writes the same rows/series the paper
// reports, annotated with the paper's published values where applicable,
// so paper-vs-reproduction comparison is a diff away (`tsebench -fig all`
// prints it; testdata/*.golden pins the engine-driven tables).
//
// The cmd/tsebench binary is a thin CLI over this package; the top-level
// benchmark suite times the underlying primitives.
package experiments

import (
	"fmt"
	"io"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the CLI handle, e.g. "fig9a".
	ID string
	// Title describes what the paper shows.
	Title string
	// Run writes the regenerated rows/series to w.
	Run func(w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, separated by banners.
func RunAll(w io.Writer) error {
	for _, e := range registry {
		banner(w, e)
		if err := e.Run(w); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func banner(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "================================================================\n")
	fmt.Fprintf(w, "%s — %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "================================================================\n")
}
