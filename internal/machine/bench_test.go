package machine

import (
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
)

// sink keeps the benchmarked result live.
var sink *System

// BenchmarkMachineNew measures building one Table I machine (8 cores,
// 28 MB L2), the fixed cost every grid cell, torture cut and fuzz
// schedule pays. Run with -benchmem: the bytes per op must not grow
// with the modelled L2 capacity.
func BenchmarkMachineNew(b *testing.B) {
	cfg := config.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := New(cfg, hwdesign.StrandWeaver)
		if err != nil {
			b.Fatal(err)
		}
		sink = sys
	}
}
