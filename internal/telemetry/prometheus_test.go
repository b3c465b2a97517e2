package telemetry

import (
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact exposition bytes: name-sorted
// families, HELP/TYPE preambles, cumulative le-labelled histogram
// buckets with +Inf, integer-rendered totals. The CI /metrics smoke
// test greps this format, so it is frozen here.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry(2)
	c := r.Counter("tse_upcall_enqueued_total", "Upcalls admitted to a queue.")
	c.Add(0, 41)
	c.Add(1, 1)
	g := r.Gauge("tse_backlog", "Queued upcalls right now.")
	g.Set(7)
	h := r.Histogram("tse_residence_seconds", "Backlog residence.", []int64{0, 2})
	h.Observe(0, 0)
	h.Observe(0, 1)
	h.Observe(1, 5)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const golden = `# HELP tse_backlog Queued upcalls right now.
# TYPE tse_backlog gauge
tse_backlog 7
# HELP tse_residence_seconds Backlog residence.
# TYPE tse_residence_seconds histogram
tse_residence_seconds_bucket{le="0"} 1
tse_residence_seconds_bucket{le="2"} 2
tse_residence_seconds_bucket{le="+Inf"} 3
tse_residence_seconds_sum 6
tse_residence_seconds_count 3
# HELP tse_upcall_enqueued_total Upcalls admitted to a queue.
# TYPE tse_upcall_enqueued_total counter
tse_upcall_enqueued_total 42
`
	if b.String() != golden {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", b.String(), golden)
	}
}
