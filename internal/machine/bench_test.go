package machine

import (
	"fmt"
	"testing"

	"safemem/internal/vm"
)

func newBenchMachine(b testing.TB) *Machine {
	m := MustNew(Config{MemBytes: 1 << 20})
	if err := m.Kern.MapPages(0x10000, 4); err != nil {
		b.Fatal(err)
	}
	// Warm the cache and TLB so the steady state is the measured path.
	m.Store64(0x10000, 1)
	m.Load64(0x10000)
	return m
}

// BenchmarkMachineLoad measures the full simulated-load path in its steady
// state: monitor fan-out (none), TLB hit, cache hit, deferred-work gate.
func BenchmarkMachineLoad(b *testing.B) {
	m := newBenchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x10000, 8)
	}
}

// BenchmarkMachineStore is the store-side counterpart.
func BenchmarkMachineStore(b *testing.B) {
	m := newBenchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(0x10000, 8, uint64(i))
	}
}

// BenchmarkMachineLoadStride walks a multi-page region, exercising TLB and
// cache replacement rather than the single-line best case.
func BenchmarkMachineLoadStride(b *testing.B) {
	m := newBenchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x10000+vm.VAddr(i*64%(4*vm.PageBytes)), 8)
	}
}

// TestAccessPathNoAllocs pins the zero-allocation property of the access
// loop: the closure+defer the loop used to carry allocated on every single
// simulated load and store.
func TestAccessPathNoAllocs(t *testing.T) {
	m := newBenchMachine(t)
	if avg := testing.AllocsPerRun(1000, func() {
		m.Load(0x10000, 8)
		m.Store(0x10008, 4, 7)
		m.Load(0x10040, 1)
		m.Compute(3)
	}); avg != 0 {
		t.Fatalf("access path allocates %.1f objects per round, want 0", avg)
	}
}

// BenchmarkMachineRecycle measures the Recycle that resets a pooled
// machine after a small run — two pages stored and written back — at two
// DRAM sizes; the run itself is excluded from the timing. The touched
// footprint is the same at both sizes, so the 512 MiB figure should stay
// close to the 32 MiB one: reset cost follows what the run touched, not
// the DRAM size.
func BenchmarkMachineRecycle(b *testing.B) {
	for _, mib := range []uint64{32, 512} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			m := MustNew(Config{MemBytes: mib << 20})
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := m.Kern.MapPages(0x10000, 2); err != nil {
					b.Fatal(err)
				}
				for off := vm.VAddr(0); off < 2*vm.PageBytes; off += 8 {
					m.Store64(0x10000+off, uint64(i))
				}
				m.Cache.FlushAll()
				b.StartTimer()
				m.Recycle()
			}
		})
	}
}
