package datapath

import "tse/internal/microflow"

// EMC returns worker i's private exact-match cache (nil when disabled), so
// the external tests can check a worker's counters against its cache.
func (p *Pool) EMC(i int) *microflow.Cache { return p.workers[i].emc }
