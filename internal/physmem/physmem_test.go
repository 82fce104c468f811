package physmem

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New(100); err == nil {
		t.Error("New(100) (not line multiple) succeeded")
	}
	m, err := New(4096)
	if err != nil {
		t.Fatalf("New(4096): %v", err)
	}
	if m.Size() != 4096 || m.Lines() != 64 {
		t.Fatalf("size=%d lines=%d", m.Size(), m.Lines())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3) did not panic")
		}
	}()
	MustNew(3)
}

func TestRawRoundTrip(t *testing.T) {
	m := MustNew(1024)
	m.WriteGroupRaw(64, 0xdead, 0x5a)
	d, c := m.ReadGroupRaw(64)
	if d != 0xdead || c != 0x5a {
		t.Fatalf("got %#x/%#x", d, c)
	}
}

func TestWriteGroupDataOnlyPreservesCheck(t *testing.T) {
	m := MustNew(1024)
	m.WriteGroupRaw(0, 1, 0x77)
	m.WriteGroupDataOnly(0, 2)
	d, c := m.ReadGroupRaw(0)
	if d != 2 {
		t.Fatalf("data = %d, want 2", d)
	}
	if c != 0x77 {
		t.Fatalf("check changed to %#x, want 0x77", c)
	}
}

func TestFlipBits(t *testing.T) {
	m := MustNew(1024)
	m.WriteGroupRaw(8, 0, 0)
	m.FlipDataBit(8, 3)
	m.FlipCheckBit(8, 1)
	d, c := m.ReadGroupRaw(8)
	if d != 8 || c != 2 {
		t.Fatalf("got %#x/%#x, want 0x8/0x2", d, c)
	}
	m.FlipDataBit(8, 3)
	d, _ = m.ReadGroupRaw(8)
	if d != 0 {
		t.Fatal("double flip did not restore")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := MustNew(64)
	for _, f := range []func(){
		func() { m.ReadGroupRaw(64) },
		func() { m.WriteGroupRaw(128, 0, 0) },
		func() { m.ReadGroupRaw(4) }, // unaligned
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(64*3 + 8*5 + 3)
	if a.LineAddr() != 192 {
		t.Errorf("LineAddr = %d", a.LineAddr())
	}
	if a.LineOffset() != 43 {
		t.Errorf("LineOffset = %d", a.LineOffset())
	}
	if a.GroupAddr() != 192+40 {
		t.Errorf("GroupAddr = %d", a.GroupAddr())
	}
	if a.GroupInLine() != 5 {
		t.Errorf("GroupInLine = %d", a.GroupInLine())
	}
	if a.IsLineAligned() {
		t.Error("unaligned address reported aligned")
	}
	if !Addr(256).IsLineAligned() {
		t.Error("aligned address reported unaligned")
	}
}

func TestQuickAddrDecomposition(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		return uint64(a.LineAddr())+a.LineOffset() == uint64(a) &&
			a.GroupAddr() >= a.LineAddr() &&
			a.GroupInLine() >= 0 && a.GroupInLine() < GroupsPerLine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRawStorageIsExact(t *testing.T) {
	m := MustNew(1 << 16)
	f := func(off uint16, data uint64, check uint8) bool {
		a := Addr(off).GroupAddr()
		m.WriteGroupRaw(a, data, check)
		d, c := m.ReadGroupRaw(a)
		return d == data && c == check
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroTouched(t *testing.T) {
	m := MustNew(4096)
	// Dirty a few lines through every mutation route.
	m.WriteGroupRaw(0, 0xdead, 0x5a)
	m.WriteGroupDataOnly(64+8, 0xbeef)
	m.FlipDataBit(128, 3)
	m.FlipCheckBit(4032, 7)
	var hookLines []Addr
	m.SetMutateHook(func(line Addr) { hookLines = append(hookLines, line) })
	m.ZeroTouched()
	// Every touched line re-zeroed, hook fired once per line.
	want := map[Addr]bool{0: true, 64: true, 128: true, 4032: true}
	if len(hookLines) != len(want) {
		t.Fatalf("hook fired for %v, want %d lines", hookLines, len(want))
	}
	for _, l := range hookLines {
		if !want[l] {
			t.Fatalf("hook fired for unexpected line %#x", uint64(l))
		}
	}
	for a := Addr(0); a < 4096; a += GroupBytes {
		if d, c := m.ReadGroupRaw(a); d != 0 || c != 0 {
			t.Fatalf("group %#x not re-zeroed: data=%#x check=%#x", uint64(a), d, c)
		}
	}
	// Bitmap cleared: a second pass touches nothing.
	hookLines = nil
	m.ZeroTouched()
	if len(hookLines) != 0 {
		t.Fatalf("second ZeroTouched re-fired hook for %v", hookLines)
	}
}

func TestLazyChunks(t *testing.T) {
	m := MustNew(1 << 20)
	for _, c := range m.chunks {
		if c != nil {
			t.Fatal("fresh memory allocated a chunk")
		}
	}
	if d, c := m.ReadGroupRaw(4096 + 8); d != 0 || c != 0 {
		t.Fatalf("unallocated group reads %#x/%#x, want zero", d, c)
	}
	if got := m.ReadLineData(4096); got != [GroupsPerLine]uint64{} {
		t.Fatalf("unallocated line reads %v, want zero", got)
	}
	m.WriteGroupRaw(4096+8, 7, 3)
	allocated := 0
	for _, c := range m.chunks {
		if c != nil {
			allocated++
		}
	}
	if allocated != 1 {
		t.Fatalf("one write allocated %d chunks, want 1", allocated)
	}
	if got := m.ReadLineData(4096); got[1] != 7 || got[0] != 0 {
		t.Fatalf("ReadLineData = %v", got)
	}
	for _, f := range []func(){
		func() { m.ReadLineData(8) },       // unaligned
		func() { m.ReadLineData(1 << 20) }, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// refMemory is the obviously-correct model the bitmap-and-summary Memory is
// checked against: a flat array of groups, images as full copies.
type refMemory []group

// TestImageAndZeroModel runs random writes, captures, restores (of the
// latest and of older images, so both the dirty fast path and the full
// path run) and ZeroTouched calls against refMemory, comparing every group
// after each step and checking the touched/dirty summaries stay sound.
func TestImageAndZeroModel(t *testing.T) {
	const size = 64 * 64 * 70 // 70 summary-word bits: crosses a summary word
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	m := MustNew(size)
	ref := make(refMemory, size/GroupBytes)
	type snap struct {
		img *Image
		ref refMemory
	}
	var snaps []snap
	for step := 0; step < 1500; step++ {
		switch op := next(100); {
		case op < 80:
			a := Addr(next(size/GroupBytes) * GroupBytes)
			d, c := next(1<<63), uint8(next(256))
			m.WriteGroupRaw(a, d, c)
			ref[a/GroupBytes] = group{data: d, check: c}
		case op < 88:
			snaps = append(snaps, snap{m.CaptureImage(), append(refMemory(nil), ref...)})
		case op < 97 && len(snaps) > 0:
			s := snaps[len(snaps)-1]
			if next(3) == 0 {
				s = snaps[next(uint64(len(snaps)))]
			}
			m.RestoreImage(s.img)
			copy(ref, s.ref)
		case op >= 97:
			m.ZeroTouched()
			clear(ref)
		}
		for i, want := range ref {
			if d, c := m.ReadGroupRaw(Addr(i * GroupBytes)); d != want.data || c != want.check {
				t.Fatalf("step %d: group %d = %#x/%#x, want %#x/%#x", step, i, d, c, want.data, want.check)
			}
		}
		for wi := range m.touched {
			if m.dirty[wi]&^m.touched[wi] != 0 {
				t.Fatalf("step %d: dirty word %d not within touched", step, wi)
			}
			if m.touched[wi] != 0 && m.touchedSum[wi>>6]&(1<<(wi&63)) == 0 {
				t.Fatalf("step %d: touched word %d missing from its summary", step, wi)
			}
			if m.dirty[wi] != 0 && m.dirtySum[wi>>6]&(1<<(wi&63)) == 0 {
				t.Fatalf("step %d: dirty word %d missing from its summary", step, wi)
			}
		}
	}
}

func TestWriteLine(t *testing.T) {
	m := MustNew(4096)
	var hooks int
	m.SetMutateHook(func(line Addr) {
		if line != 128 {
			t.Fatalf("hook fired for line %#x, want 0x80", uint64(line))
		}
		hooks++
	})
	data := [GroupsPerLine]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	check := [GroupsPerLine]uint8{9, 10, 11, 12, 13, 14, 15, 16}
	m.WriteLineRaw(128, data, check)
	m.WriteLineDataOnly(128, [GroupsPerLine]uint64{21, 22, 23, 24, 25, 26, 27, 28})
	for i := 0; i < GroupsPerLine; i++ {
		d, c := m.ReadGroupRaw(Addr(128 + i*GroupBytes))
		if d != uint64(21+i) || c != check[i] {
			t.Fatalf("group %d = %d/%d, want %d/%d", i, d, c, 21+i, check[i])
		}
	}
	if hooks != 2 {
		t.Fatalf("hook fired %d times for two line writes, want 2", hooks)
	}
	for _, f := range []func(){
		func() { m.WriteLineRaw(136, data, check) }, // unaligned
		func() { m.WriteLineDataOnly(4096, data) },  // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
