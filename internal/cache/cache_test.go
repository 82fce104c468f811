package cache

import (
	"testing"
	"testing/quick"

	"safemem/internal/ecc"
	"safemem/internal/memctrl"
	"safemem/internal/physmem"
	"safemem/internal/simtime"
	"safemem/internal/telemetry"
)

func newRig(memSize uint64, cfg Config) (*Cache, *memctrl.Controller, *simtime.Clock) {
	clock := &simtime.Clock{}
	ctrl := memctrl.New(physmem.MustNew(memSize), clock)
	return MustNew(ctrl, clock, cfg), ctrl, clock
}

func TestConfigValidation(t *testing.T) {
	clock := &simtime.Clock{}
	ctrl := memctrl.New(physmem.MustNew(4096), clock)
	if _, err := New(ctrl, clock, Config{Sets: 3, Ways: 1}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := New(ctrl, clock, Config{Sets: 4, Ways: 0}); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestLoadStoreWord(t *testing.T) {
	c, _, _ := newRig(1<<16, DefaultConfig)
	c.StoreWord(64, 0xdeadbeef)
	if got := c.LoadWord(64); got != 0xdeadbeef {
		t.Fatalf("LoadWord = %#x", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit", st)
	}
}

func TestSubWordAccess(t *testing.T) {
	c, _, _ := newRig(1<<16, DefaultConfig)
	c.StoreWord(0, 0x8877665544332211)
	if got := c.LoadBytes(2, 2); got != 0x4433 {
		t.Fatalf("LoadBytes(2,2) = %#x", got)
	}
	if got := c.LoadBytes(7, 1); got != 0x88 {
		t.Fatalf("LoadBytes(7,1) = %#x", got)
	}
	c.StoreBytes(3, 1, 0xff)
	if got := c.LoadWord(0); got != 0x88776655ff332211 {
		t.Fatalf("after StoreBytes word = %#x", got)
	}
	c.StoreBytes(0, 4, 0xaabbccdd)
	if got := c.LoadWord(0); got != 0x88776655aabbccdd {
		t.Fatalf("after 4-byte store word = %#x", got)
	}
}

func TestCrossGroupAccessPanics(t *testing.T) {
	c, _, _ := newRig(1<<16, DefaultConfig)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-group access did not panic")
		}
	}()
	c.LoadBytes(6, 4)
}

func TestWriteBackOnEviction(t *testing.T) {
	// 1 set × 1 way: any second distinct line evicts the first.
	c, ctrl, _ := newRig(1<<16, Config{Sets: 1, Ways: 1})
	c.StoreWord(0, 111)
	c.LoadWord(64) // evicts dirty line 0
	if c.Stats().WriteBacks != 1 {
		t.Fatalf("WriteBacks = %d, want 1", c.Stats().WriteBacks)
	}
	raw, _ := ctrl.Memory().ReadGroupRaw(0)
	if raw != 111 {
		t.Fatalf("DRAM = %d, want 111", raw)
	}
	if got := c.LoadWord(0); got != 111 {
		t.Fatalf("reload = %d, want 111", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	c, _, _ := newRig(1<<16, Config{Sets: 1, Ways: 2})
	c.LoadWord(0)   // miss: {0}
	c.LoadWord(64)  // miss: {0,64}
	c.LoadWord(0)   // hit: 0 becomes MRU
	c.LoadWord(128) // miss: evicts 64, not 0
	if !c.Contains(0) {
		t.Fatal("LRU evicted the most recently used line")
	}
	if c.Contains(64) {
		t.Fatal("LRU kept the least recently used line")
	}
}

func TestCacheFiltersECCFaults(t *testing.T) {
	// The core reason WatchMemory must flush: a cached line never reaches
	// the controller, so no ECC fault can fire.
	c, ctrl, _ := newRig(1<<16, DefaultConfig)
	faults := 0
	ctrl.SetInterruptHandler(func(r memctrl.FaultReport) {
		faults++
		// Repair so execution can continue.
		orig := ecc.Scramble(r.Data)
		ctrl.Memory().WriteGroupRaw(r.Group, orig, uint8(ecc.Encode(orig)))
	})

	c.StoreWord(0, 0x1234) // line 0 now cached (dirty)
	// Scramble DRAM behind the cache's back.
	ctrl.Memory().WriteGroupDataOnly(0, ecc.Scramble(0))

	c.LoadWord(0) // hit: filtered, no fault
	if faults != 0 {
		t.Fatalf("cached access raised %d faults", faults)
	}

	// Now flush without write-back contaminating the experiment: line is
	// dirty, so flush writes back and overwrites the scramble. Use a clean
	// line instead.
	c2, ctrl2, _ := newRig(1<<16, DefaultConfig)
	faults2 := 0
	var orig uint64 = 0xfeed
	ctrl2.SetInterruptHandler(func(r memctrl.FaultReport) {
		faults2++
		ctrl2.Memory().WriteGroupRaw(r.Group, orig, uint8(ecc.Encode(orig)))
	})
	var line [physmem.GroupsPerLine]uint64
	line[0] = orig
	ctrl2.WriteLine(0, line)
	c2.LoadWord(0) // clean fill
	ctrl2.Memory().WriteGroupDataOnly(0, ecc.Scramble(orig))
	c2.LoadWord(0) // still cached: no fault
	if faults2 != 0 {
		t.Fatal("cached access reached memory")
	}
	c2.FlushLine(0)
	if got := c2.LoadWord(0); got != orig {
		t.Fatalf("post-fault load = %#x, want %#x", got, orig)
	}
	if faults2 != 1 {
		t.Fatalf("flushed access raised %d faults, want 1", faults2)
	}
}

func TestFlushLineWritesBackDirty(t *testing.T) {
	c, ctrl, _ := newRig(1<<16, DefaultConfig)
	c.StoreWord(192, 7)
	c.FlushLine(192)
	if c.Contains(192) {
		t.Fatal("line still cached after flush")
	}
	raw, _ := ctrl.Memory().ReadGroupRaw(192)
	if raw != 7 {
		t.Fatalf("DRAM = %d after flush, want 7", raw)
	}
	// Flushing an absent line is a no-op (but still charged).
	c.FlushLine(192)
	if c.Stats().Flushes != 2 {
		t.Fatalf("Flushes = %d, want 2", c.Stats().Flushes)
	}
}

func TestFlushAll(t *testing.T) {
	c, ctrl, _ := newRig(1<<16, DefaultConfig)
	c.StoreWord(0, 1)
	c.StoreWord(64, 2)
	c.LoadWord(128)
	c.FlushAll()
	for _, a := range []physmem.Addr{0, 64, 128} {
		if c.Contains(a) {
			t.Fatalf("line %d still cached", a)
		}
	}
	if raw, _ := ctrl.Memory().ReadGroupRaw(64); raw != 2 {
		t.Fatal("FlushAll lost a dirty line")
	}
}

func TestCycleCharges(t *testing.T) {
	c, _, clock := newRig(1<<16, DefaultConfig)
	before := clock.Now()
	c.LoadWord(0)
	missCost := clock.Now() - before
	if missCost < simtime.CostCacheMiss {
		t.Fatalf("miss cost %d < %d", missCost, simtime.CostCacheMiss)
	}
	before = clock.Now()
	c.LoadWord(0)
	if hit := clock.Now() - before; hit != simtime.CostCacheHit {
		t.Fatalf("hit cost %d, want %d", hit, simtime.CostCacheHit)
	}
}

func TestQuickSubWordRoundTrip(t *testing.T) {
	c, _, _ := newRig(1<<20, DefaultConfig)
	f := func(off uint16, v uint64, szRaw uint8) bool {
		size := int(szRaw)%8 + 1
		a := physmem.Addr(uint64(off) &^ 7) // group-aligned base
		if uint64(a)%physmem.GroupBytes+uint64(size) > physmem.GroupBytes {
			return true
		}
		mask := uint64(1)<<(uint(size)*8) - 1
		if size == 8 {
			mask = ^uint64(0)
		}
		c.StoreBytes(a, size, v)
		return c.LoadBytes(a, size) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLaneCommitOrder pins CommitRun's LRU contract: committing n
// batched accesses against a line leaves exactly the replacement state n
// sequential hitting lookups would have — same hit counts, same relative
// recency, and therefore the same victims on the next misses.
func TestBatchLaneCommitOrder(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2}
	seq, _, _ := newRig(1<<16, cfg)
	bat, _, _ := newRig(1<<16, cfg)
	// Four lines in the same set (set-index stride is Sets*LineBytes).
	const A, B, C, D = physmem.Addr(0), physmem.Addr(256), physmem.Addr(512), physmem.Addr(768)

	for _, c := range []*Cache{seq, bat} {
		c.StoreWord(A, 0xa) // miss-fill A
		c.StoreWord(B, 0xb) // miss-fill B — the set is now full
	}
	// Three further touches of A: per-access hits on seq, one batched
	// commit on bat.
	seq.LoadWord(A)
	seq.LoadWord(A)
	seq.LoadWord(A)
	r, ok := bat.OpenLine(A)
	if !ok {
		t.Fatal("A not resident")
	}
	bat.CommitRun(r, 3)
	if seq.Stats() != bat.Stats() {
		t.Fatalf("stats diverge after commit: seq %+v bat %+v", seq.Stats(), bat.Stats())
	}

	// C misses: the victim must be B on both (A was touched more recently).
	for name, c := range map[string]*Cache{"seq": seq, "bat": bat} {
		c.LoadWord(C)
		if _, ok := c.OpenLine(B); ok {
			t.Errorf("%s: B survived; victim choice diverged from per-access LRU", name)
		}
		if _, ok := c.OpenLine(A); !ok {
			t.Errorf("%s: A evicted; CommitRun did not stamp it most-recent", name)
		}
	}
	// D misses next: A is now older than C, so A must go.
	for name, c := range map[string]*Cache{"seq": seq, "bat": bat} {
		c.LoadWord(D)
		if _, ok := c.OpenLine(A); ok {
			t.Errorf("%s: A survived the second eviction", name)
		}
		if _, ok := c.OpenLine(C); !ok {
			t.Errorf("%s: C evicted out of order", name)
		}
	}
	if seq.Stats() != bat.Stats() {
		t.Fatalf("stats diverge after evictions: seq %+v bat %+v", seq.Stats(), bat.Stats())
	}
}

// TestLineRefBulkAccessors pins the fast lane's bulk line accessors against
// the byte-granularity Load/Store they replace.
func TestLineRefBulkAccessors(t *testing.T) {
	c, _, _ := newRig(1<<16, DefaultConfig)
	for i := uint64(0); i < physmem.LineBytes; i++ {
		c.StoreBytes(physmem.Addr(i&^7), 8, 0x0101010101010101*(i/8+1))
	}
	r, ok := c.OpenLine(0)
	if !ok {
		t.Fatal("line 0 not resident")
	}
	w := r.Words()
	for g := 0; g < physmem.GroupsPerLine; g++ {
		if w[g] != r.Word(g) {
			t.Fatalf("Words()[%d] = %#x, Word(%d) = %#x", g, w[g], g, r.Word(g))
		}
	}
	// StoreBytesLE across a group boundary must match per-byte stores.
	r.StoreBytesLE(5, 8, 0x1122334455667788)
	for i := uint64(0); i < 8; i++ {
		want := uint64(0x1122334455667788>>(8*i)) & 0xff
		if got := r.Load(5+i, 1); got != want {
			t.Fatalf("byte %d after StoreBytesLE = %#x, want %#x", i, got, want)
		}
	}
	// Short tail with masking: surrounding bytes untouched.
	before := r.Load(16, 8)
	r.StoreBytesLE(18, 3, 0xffffffffff) // only 3 bytes may land
	want := before&^uint64(0xffffff<<16) | 0xffffff<<16
	if got := r.Load(16, 8); got != want {
		t.Fatalf("masked StoreBytesLE word = %#x, want %#x", got, want)
	}
}

// TestFlushLineNoAllocsWhenNotTracing pins that FlushLine builds its trace
// arguments only while the tracer records: WatchMemory flushes every line
// it arms, so a per-flush allocation would tax every untraced run.
func TestFlushLineNoAllocsWhenNotTracing(t *testing.T) {
	c, _, clock := newRig(1<<16, DefaultConfig)
	reg := telemetry.NewRegistry("", telemetry.Config{})
	reg.AttachClock(clock)
	c.RegisterTelemetry(reg)
	c.StoreWord(0, 1)
	if avg := testing.AllocsPerRun(100, func() {
		c.StoreWord(0, 2)
		c.FlushLine(0)
	}); avg != 0 {
		t.Fatalf("FlushLine on a disabled tracer allocates %.1f objects, want 0", avg)
	}
}

// requireZeroed fails unless every way and tag is back to its New state.
func requireZeroed(t *testing.T, c *Cache, when string) {
	t.Helper()
	for i := range c.ways {
		if c.ways[i] != (way{}) || c.tags[i] != 0 {
			t.Fatalf("%s: way %d not zeroed: %+v tag %#x", when, i, c.ways[i], c.tags[i])
		}
	}
}

// TestRecycleZeroesEveryWay drives Recycle through its fill-log fast path
// and each fallback — a spilled log, and a capture or restore of a
// non-pristine image since the cache was last all-zero — and checks that
// every way ends up zeroed each time.
func TestRecycleZeroesEveryWay(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2}
	c, _, _ := newRig(1<<16, cfg)
	fill := func(lines int) {
		for i := 0; i < lines; i++ {
			c.StoreWord(physmem.Addr(i*physmem.LineBytes), uint64(i)+1)
		}
	}

	fill(3)
	c.Recycle()
	requireZeroed(t, c, "fill log")

	fill(4 * 2 * 3) // three times the ways: the log spills
	if !c.fillSpill {
		t.Fatal("fill log did not spill")
	}
	c.Recycle()
	requireZeroed(t, c, "spilled log")

	fill(3)
	_ = c.CaptureImage() // non-pristine: the log restarts over live ways
	fill(1)
	c.Recycle()
	requireZeroed(t, c, "after non-pristine capture")

	fill(2)
	img := c.CaptureImage()
	c.Recycle()
	c.RestoreImage(img) // non-pristine restore
	c.Recycle()
	requireZeroed(t, c, "after non-pristine restore")

	// A pristine image restored after a non-pristine capture must not trust
	// the log either.
	pristine := c.CaptureImage()
	fill(2)
	_ = c.CaptureImage()
	fill(1)
	c.RestoreImage(pristine)
	requireZeroed(t, c, "pristine restore after non-pristine capture")
}
