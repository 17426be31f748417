package cpu

import (
	"math/rand"
	"testing"

	"strandweaver/internal/config"
	"strandweaver/internal/hwdesign"
)

// TestBackoffJitterStream pins each core's lock-backoff jitter to the
// stream of rand.NewSource(id*7919+12345), however the generator is
// built: eagerly, on the first draw, or by a Restore replay.
func TestBackoffJitterStream(t *testing.T) {
	const draws = 64
	r := newRig(t, config.Default(), hwdesign.StrandWeaver, 8)
	for id, c := range r.cores {
		want := rand.New(rand.NewSource(int64(id)*7919 + 12345))
		for i := 0; i < draws; i++ {
			if got, w := c.backoffJitter(), want.Intn(8); got != w {
				t.Fatalf("core %d draw %d = %d, want %d", id, i, got, w)
			}
		}
	}
	// Restore at a stream position continues the stream from there.
	for _, at := range []int{0, 5} {
		for id := range r.cores {
			fresh := newRig(t, config.Default(), hwdesign.StrandWeaver, 8).cores[id]
			for i := 0; i < at; i++ {
				fresh.backoffJitter()
			}
			snap := fresh.Snapshot()
			c := r.cores[id]
			c.Restore(snap)
			want := rand.New(rand.NewSource(int64(id)*7919 + 12345))
			for i := 0; i < at; i++ {
				want.Intn(8)
			}
			for i := at; i < draws; i++ {
				if got, w := c.backoffJitter(), want.Intn(8); got != w {
					t.Fatalf("core %d restored at %d: draw %d = %d, want %d", id, at, i, got, w)
				}
			}
		}
	}
}
