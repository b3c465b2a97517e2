// Command tsebench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	tsebench -list           # show available experiment IDs
//	tsebench -fig fig9a      # regenerate one table/figure
//	tsebench -fig chaos      # fault-injection run: unsupervised wedge vs
//	                         # supervised self-healing under the flood
//	tsebench -fig fleetchaos # 4-node fleet: blast-radius containment under
//	                         # node death, controller partition, push errors
//	tsebench -fig all        # regenerate everything (takes ~1 min)
//	tsebench -workers 6      # PMD datapath scaling table for 1 vs 6 cores
//	tsebench -replay mix.trace  # replay a tsegen -emit-trace file through
//	                         # the datapath at wire rate; prints achieved Mpps
//	tsebench -serve :8080 -fig all  # live telemetry while the figures run:
//	                         # /metrics /journal /debug/vars /debug/pprof/
//	tsebench -trace out.json -fig portfairness  # export sampled flow-setup
//	                         # spans as chrome://tracing JSON
//
// Each experiment prints the same rows/series the paper reports plus the
// paper's published anchor values for comparison; `tsebench -fig all` is
// the paper-vs-measured record, and internal/experiments/testdata/*.golden
// pins the engine-driven tables byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tse/internal/experiments"
	"tse/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	fig := flag.String("fig", "all", "experiment ID to run, or 'all'")
	workers := flag.Int("workers", 0,
		"run the multicore datapath scaling table comparing 1 worker against N")
	serve := flag.String("serve", "",
		"serve live telemetry (/metrics, /journal, /debug/vars, /debug/pprof/) on this address while running, then block")
	trace := flag.String("trace", "",
		"export sampled flow-setup spans from the run as chrome://tracing JSON to this path")
	replay := flag.String("replay", "",
		"replay a binary flow trace (tsegen -emit-trace) through the datapath at wire rate and report achieved Mpps")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "tsebench: -workers must be >= 0")
		os.Exit(2)
	}
	figSet := false
	flag.Visit(func(f *flag.Flag) { figSet = figSet || f.Name == "fig" })
	if *workers > 0 && figSet && *replay == "" {
		fmt.Fprintln(os.Stderr, "tsebench: -workers and -fig are mutually exclusive")
		os.Exit(2)
	}

	if *replay != "" {
		if err := experiments.RunTraceReplay(os.Stdout, *replay, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "tsebench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	// -serve / -trace install a process-wide hub the experiment runs thread
	// through their scenarios. Spans are opt-in (they allocate per sample),
	// so the tracer only exists when -trace asks for it.
	hub := (*telemetry.Hub)(nil)
	if *serve != "" || *trace != "" {
		hub = telemetry.NewHub()
		if *trace != "" {
			hub.Tracer = telemetry.NewTracer(16, 0)
		}
		experiments.SetTelemetry(hub)
	}
	if *serve != "" {
		_, addr, err := telemetry.Serve(*serve, hub)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsebench:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: http://%s/  (/metrics /journal /debug/vars /debug/pprof/)\n", addr)
	}

	run := experiments.RunAll
	switch {
	case *workers > 0:
		counts := []int{1}
		if *workers > 1 {
			counts = append(counts, *workers)
		}
		run = func(w io.Writer) error { return experiments.RunMulticore(w, counts) }
	case *fig != "all":
		e, ok := experiments.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "tsebench: unknown experiment %q; try -list\n", *fig)
			os.Exit(2)
		}
		run = e.Run
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsebench:", err)
		os.Exit(1)
	}
	if *trace != "" {
		spans := hub.Tracer.Spans()
		if err := telemetry.WriteChromeTraceFile(*trace, spans); err != nil {
			fmt.Fprintln(os.Stderr, "tsebench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d flow-setup spans (of %d admissions seen) to %s — open in chrome://tracing or ui.perfetto.dev\n",
			len(spans), hub.Tracer.Seen(), *trace)
	}
	if *serve != "" {
		// -serve keeps the endpoints up for inspection until interrupted.
		fmt.Println("telemetry: run complete, endpoints still live — ctrl-C to exit")
		select {}
	}
}
