// Package physmem models the physical DRAM of the simulated machine.
//
// Memory is organised the way the ECC memory controller sees it: 64-byte
// lines (the granularity of all main-memory traffic, Section 2.2.1), each
// made of eight 64-bit ECC groups, each group stored together with its 8 ECC
// check bits (Section 2.1). The package stores raw bits only; the encode/
// check policy — when check bits are regenerated, when errors are corrected
// or reported — belongs to package memctrl, mirroring the hardware split
// between DRAM modules and the chipset.
package physmem

import (
	"fmt"
	"math/bits"
	"sort"

	"safemem/internal/telemetry"
)

const (
	// LineBytes is the size of one cache line / memory-bus transfer.
	LineBytes = 64
	// GroupsPerLine is the number of 64-bit ECC groups per line.
	GroupsPerLine = LineBytes / 8
	// GroupBytes is the number of data bytes per ECC group.
	GroupBytes = 8
)

// Addr is a physical byte address in the simulated machine.
type Addr uint64

// LineAddr returns the address of the line containing a.
func (a Addr) LineAddr() Addr { return a &^ (LineBytes - 1) }

// LineOffset returns a's byte offset within its line.
func (a Addr) LineOffset() uint64 { return uint64(a) & (LineBytes - 1) }

// GroupAddr returns the address of the ECC group containing a.
func (a Addr) GroupAddr() Addr { return a &^ (GroupBytes - 1) }

// GroupInLine returns the index (0..7) of a's ECC group within its line.
func (a Addr) GroupInLine() int { return int(a.LineOffset() / GroupBytes) }

// IsLineAligned reports whether a is aligned to a line boundary.
func (a Addr) IsLineAligned() bool { return a%LineBytes == 0 }

// group is one stored ECC group: 64 data bits plus 8 check bits.
type group struct {
	data  uint64
	check uint8
}

const (
	// chunkLines is the number of lines in one lazily allocated DRAM chunk:
	// 4 KiB of simulated memory, exactly the lines one touched-bitmap word
	// covers.
	chunkLines = 64
	// chunkGroups is the number of ECC groups per chunk.
	chunkGroups = chunkLines * GroupsPerLine
)

// chunk is 4 KiB of stored DRAM, allocated on its first mutation.
type chunk [chunkGroups]group

// Memory is the simulated DRAM. The zero value is unusable; create with New.
type Memory struct {
	// chunks holds the stored bits, one entry per 64 lines. A nil chunk has
	// never been mutated and reads as zero data with zero check bits —
	// exactly what freshly allocated DRAM holds — so creating a machine
	// costs nothing per byte of DRAM, and a pooled memory pins only the
	// chunks its tenants touched. Chunks are never freed once allocated.
	chunks []*chunk
	size   uint64

	// onMutate, when set, observes every mutation of stored bits — raw
	// writes, data-only writes, and bit flips — with the line address of the
	// touched group. The memory controller hooks it to invalidate its
	// known-clean line bitmap, so no writer (fault injector, fault model,
	// VM swap, direct-ECC pokes) can corrupt a line behind the controller's
	// decode-skipping fast path.
	onMutate func(line Addr)

	// touched is a one-bit-per-line bitmap of lines whose stored bits have
	// been mutated since the memory was last all-zero. It lets ZeroTouched
	// restore a used memory to its pristine state by re-zeroing only the
	// dirtied lines instead of the whole DRAM — the trick that makes
	// machine pooling cheaper than a fresh machine per campaign scenario.
	touched []uint64

	// dirty is the since-last-capture counterpart of touched: CaptureImage
	// clears it, every mutation sets it, and RestoreImage walks it to
	// re-copy only the lines that actually diverged from the image.
	// Invariant between capture and restore: touched == image.touched |
	// dirty. dirty is always a subset of touched.
	dirty []uint64

	// touchedSum and dirtySum summarise touched and dirty one bit per
	// word: a clear summary bit guarantees the word is zero (a set one
	// only that it may not be). ZeroTouched, CaptureImage and the fast
	// path of RestoreImage visit just the summarised words, so they cost
	// O(touched lines + one summary word per 4096 lines) instead of one
	// bitmap word per 64 lines.
	touchedSum []uint64
	dirtySum   []uint64

	// snapGen guards image validity: CaptureImage stamps the image with the
	// current generation and anything that breaks the dirty-tracking
	// invariant (ZeroTouched, restoring a different image) bumps it, forcing
	// the next RestoreImage onto the always-correct full path.
	snapGen uint64
}

// SetMutateHook installs fn as the mutation observer (nil clears it). There
// is a single slot: the owning memory controller. The hook must not itself
// write to the memory.
func (m *Memory) SetMutateHook(fn func(line Addr)) { m.onMutate = fn }

// noteMutate reports a mutation of the group at index idx to the hook and
// records the line in the touched and dirty bitmaps and their summaries.
func (m *Memory) noteMutate(idx uint64) {
	line := idx / GroupsPerLine
	wi := line >> 6
	m.touched[wi] |= 1 << (line & 63)
	m.dirty[wi] |= 1 << (line & 63)
	m.touchedSum[wi>>6] |= 1 << (wi & 63)
	m.dirtySum[wi>>6] |= 1 << (wi & 63)
	if m.onMutate != nil {
		m.onMutate(Addr(idx * GroupBytes).LineAddr())
	}
}

// mutable records a mutation of the group at index idx and returns it for
// writing, allocating its chunk on first use.
func (m *Memory) mutable(idx uint64) *group {
	c := m.chunks[idx/chunkGroups]
	if c == nil {
		c = new(chunk)
		m.chunks[idx/chunkGroups] = c
	}
	m.noteMutate(idx)
	return &c[idx%chunkGroups]
}

// lineGroups returns the stored groups of line, or nil when its chunk was
// never allocated (all zero).
func (m *Memory) lineGroups(line uint64) []group {
	c := m.chunks[line/chunkLines]
	if c == nil {
		return nil
	}
	gi := line % chunkLines * GroupsPerLine
	return c[gi : gi+GroupsPerLine]
}

// ZeroTouched re-zeroes every line that has been mutated (data and check
// bits) and clears the touched bitmap, restoring the memory to its
// freshly-allocated contents. The mutate hook fires once per re-zeroed
// line, exactly as it would for explicit writes, so a controller's
// known-clean bitmap cannot go stale. Cost is proportional to the touched
// footprint, not the DRAM size; the zeroed chunks stay allocated for the
// next tenant.
func (m *Memory) ZeroTouched() {
	for si, s := range m.touchedSum {
		if s == 0 {
			continue
		}
		for s != 0 {
			b := uint64(bits.TrailingZeros64(s))
			s &^= 1 << b
			wi := uint64(si)<<6 + b
			for w := m.touched[wi]; w != 0; {
				lb := uint64(bits.TrailingZeros64(w))
				w &^= 1 << lb
				line := wi<<6 + lb
				clear(m.lineGroups(line))
				if m.onMutate != nil {
					m.onMutate(Addr(line * LineBytes))
				}
			}
			m.touched[wi] = 0
			m.dirty[wi] = 0
		}
		m.touchedSum[si] = 0
		m.dirtySum[si] = 0
	}
	// Zeroing breaks any image's dirty-tracking invariant (its lines are
	// gone but its dirty bits were cleared along the way); stale images must
	// take the full restore path.
	m.snapGen++
}

// New allocates a simulated DRAM of the given size in bytes. The size must
// be a positive multiple of the line size.
func New(size uint64) (*Memory, error) {
	if size == 0 || size%LineBytes != 0 {
		return nil, fmt.Errorf("physmem: size %d is not a positive multiple of %d", size, LineBytes)
	}
	words := (size/LineBytes + 63) / 64
	return &Memory{
		chunks:     make([]*chunk, words),
		size:       size,
		touched:    make([]uint64, words),
		dirty:      make([]uint64, words),
		touchedSum: make([]uint64, (words+63)/64),
		dirtySum:   make([]uint64, (words+63)/64),
	}, nil
}

// MustNew is New, panicking on error. For tests and examples.
func MustNew(size uint64) *Memory {
	m, err := New(size)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// RegisterTelemetry registers the DRAM geometry with the registry.
func (m *Memory) RegisterTelemetry(reg *telemetry.Registry) {
	reg.RegisterSource("physmem", func(emit func(string, float64)) {
		emit("size_bytes", float64(m.size))
		emit("lines", float64(m.Lines()))
	})
}

// Lines returns the number of 64-byte lines.
func (m *Memory) Lines() uint64 { return m.size / LineBytes }

// check panics on out-of-range group-aligned addresses; the simulator's own
// components are the only callers, so a violation is a simulator bug.
func (m *Memory) groupIndex(a Addr) uint64 {
	if uint64(a) >= m.size {
		panic(fmt.Sprintf("physmem: address %#x out of range (size %#x)", uint64(a), m.size))
	}
	if a%GroupBytes != 0 {
		panic(fmt.Sprintf("physmem: address %#x not group aligned", uint64(a)))
	}
	return uint64(a) / GroupBytes
}

// ReadGroupRaw returns the stored data word and check bits of the ECC group
// at a, without any ECC checking.
func (m *Memory) ReadGroupRaw(a Addr) (data uint64, check uint8) {
	idx := m.groupIndex(a)
	c := m.chunks[idx/chunkGroups]
	if c == nil {
		return 0, 0
	}
	g := c[idx%chunkGroups]
	return g.data, g.check
}

// ReadLineData returns the stored data words of the line at a, which must
// be line-aligned, without check bits or any ECC checking. It looks the
// line's chunk up once, not once per group — the controller's known-clean
// read path.
func (m *Memory) ReadLineData(a Addr) (out [GroupsPerLine]uint64) {
	if !a.IsLineAligned() {
		panic(fmt.Sprintf("physmem: address %#x not line aligned", uint64(a)))
	}
	if g := m.lineGroups(m.groupIndex(a) / GroupsPerLine); g != nil {
		for i := range out {
			out[i] = g[i].data
		}
	}
	return out
}

// WriteGroupRaw stores both the data word and the check bits of the group at
// a. This is the full-control path used by the controller and by the fault
// injector.
func (m *Memory) WriteGroupRaw(a Addr, data uint64, check uint8) {
	*m.mutable(m.groupIndex(a)) = group{data: data, check: check}
}

// mutableLine records a mutation of the line at a, which must be
// line-aligned, and returns its eight groups for writing, allocating the
// chunk on first use: one lookup and one mutation record for the line.
func (m *Memory) mutableLine(a Addr) []group {
	if !a.IsLineAligned() {
		panic(fmt.Sprintf("physmem: address %#x not line aligned", uint64(a)))
	}
	idx := m.groupIndex(a)
	m.mutable(idx)
	return m.lineGroups(idx / GroupsPerLine)
}

// WriteLineRaw stores the data words and check bits of all eight groups of
// the line at a (line-aligned) — WriteGroupRaw for a whole line, as the
// controller writes it back with ECC enabled.
func (m *Memory) WriteLineRaw(a Addr, data [GroupsPerLine]uint64, check [GroupsPerLine]uint8) {
	g := m.mutableLine(a)
	for i := range g {
		g[i] = group{data: data[i], check: check[i]}
	}
}

// WriteLineDataOnly stores the data words of all eight groups of the line
// at a (line-aligned), leaving their check bits untouched —
// WriteGroupDataOnly for a whole line, the ECC-disabled scramble write.
func (m *Memory) WriteLineDataOnly(a Addr, data [GroupsPerLine]uint64) {
	g := m.mutableLine(a)
	for i := range g {
		g[i].data = data[i]
	}
}

// WriteGroupDataOnly stores the data word at a while leaving the stored
// check bits untouched. This models a write performed while the ECC engine
// is disabled — the heart of SafeMem's WatchMemory trick (Figure 2): the old
// check bits now mismatch the new data.
func (m *Memory) WriteGroupDataOnly(a Addr, data uint64) {
	m.mutable(m.groupIndex(a)).data = data
}

// FlipDataBit inverts one data bit of the group at a, leaving the check bits
// untouched. It models a hardware memory error (cosmic ray, failing cell).
func (m *Memory) FlipDataBit(a Addr, bit uint) {
	if bit >= 64 {
		panic("physmem: data bit out of range")
	}
	m.mutable(m.groupIndex(a)).data ^= 1 << bit
}

// Image is an immutable checkpoint of a Memory's stored bits, taken with
// CaptureImage. It records only the touched lines — for the warmed-but-idle
// machines the snapshot layer checkpoints, that is a handful of lines, not
// the DRAM.
type Image struct {
	mem *Memory
	gen uint64
	// words holds the captured touched bitmap sparsely: its non-zero words,
	// in ascending word order.
	words []imageWord
	lines map[uint64]*[GroupsPerLine]group
}

// imageWord is one non-zero word of a captured touched bitmap.
type imageWord struct {
	wi   uint64
	bits uint64
}

// touchedWord returns word wi of the captured touched bitmap.
func (img *Image) touchedWord(wi uint64) uint64 {
	i := sort.Search(len(img.words), func(i int) bool { return img.words[i].wi >= wi })
	if i < len(img.words) && img.words[i].wi == wi {
		return img.words[i].bits
	}
	return 0
}

// CaptureImage checkpoints the memory's current contents. It also resets
// the dirty-since-capture bitmap, so a later RestoreImage re-copies only
// lines mutated in between. The image belongs to this memory; restoring it
// elsewhere panics.
func (m *Memory) CaptureImage() *Image {
	img := &Image{
		mem:   m,
		lines: make(map[uint64]*[GroupsPerLine]group),
	}
	for si, s := range m.touchedSum {
		for s != 0 {
			b := uint64(bits.TrailingZeros64(s))
			s &^= 1 << b
			wi := uint64(si)<<6 + b
			w := m.touched[wi]
			if w != 0 {
				img.words = append(img.words, imageWord{wi: wi, bits: w})
			}
			for w != 0 {
				lb := uint64(bits.TrailingZeros64(w))
				w &^= 1 << lb
				line := wi<<6 + lb
				saved := new([GroupsPerLine]group)
				copy(saved[:], m.lineGroups(line))
				img.lines[line] = saved
			}
		}
	}
	m.clearDirty()
	m.snapGen++
	img.gen = m.snapGen
	return img
}

// clearDirty empties the dirty bitmap through its summary.
func (m *Memory) clearDirty() {
	for si, s := range m.dirtySum {
		if s == 0 {
			continue
		}
		for s != 0 {
			b := uint64(bits.TrailingZeros64(s))
			s &^= 1 << b
			m.dirty[uint64(si)<<6+b] = 0
		}
		m.dirtySum[si] = 0
	}
}

// restoreLine puts one line back to its image content (or zero, when the
// image never held it) and fires the mutate hook, exactly as an explicit
// write would, so a controller's known-clean bitmap cannot go stale. An
// image line was touched when captured and chunks are never freed, so its
// chunk exists.
func (m *Memory) restoreLine(img *Image, line uint64) {
	if saved, ok := img.lines[line]; ok {
		copy(m.lineGroups(line), saved[:])
	} else {
		clear(m.lineGroups(line))
	}
	if m.onMutate != nil {
		m.onMutate(Addr(line * LineBytes))
	}
}

// restoreWord restores every line set in w, the lines of touched word wi.
func (m *Memory) restoreWord(img *Image, wi, w uint64) {
	for w != 0 {
		b := uint64(bits.TrailingZeros64(w))
		w &^= 1 << b
		m.restoreLine(img, wi<<6+b)
	}
}

// RestoreImage puts the memory back into the captured state. When the
// image's dirty tracking is still valid (nothing but ordinary mutations
// happened since CaptureImage or the previous RestoreImage of this image),
// only the lines dirtied in between are re-copied, found through the dirty
// summary; otherwise every line either side touched is restored after a
// walk of the whole touched bitmap — slower, never wrong. Afterwards the
// image is valid for the next fast restore. The mutate hook fires once per
// restored line.
func (m *Memory) RestoreImage(img *Image) {
	if img.mem != m {
		panic("physmem: RestoreImage with an image captured from a different memory")
	}
	if img.gen == m.snapGen {
		// Fast path: touched == img.touched | dirty, so restoring the dirty
		// lines and stripping their extra touched bits lands exactly on the
		// captured bitmaps.
		for si, s := range m.dirtySum {
			if s == 0 {
				continue
			}
			for s != 0 {
				b := uint64(bits.TrailingZeros64(s))
				s &^= 1 << b
				wi := uint64(si)<<6 + b
				w := m.dirty[wi]
				m.restoreWord(img, wi, w)
				m.touched[wi] &^= w &^ img.touchedWord(wi)
				m.dirty[wi] = 0
				if m.touched[wi] == 0 {
					m.touchedSum[si] &^= 1 << b
				}
			}
			m.dirtySum[si] = 0
		}
		return
	}
	// Full path: the bitmaps' provenance is unknown (ZeroTouched ran, or a
	// different image was restored), so walk every word of the current
	// touched bitmap, then the image's words, restoring the union of both
	// touched sets and rebuilding the summaries from scratch.
	clear(m.touchedSum)
	clear(m.dirtySum)
	for wi, w := range m.touched {
		if w == 0 {
			continue
		}
		iw := img.touchedWord(uint64(wi))
		m.restoreWord(img, uint64(wi), w|iw)
		m.touched[wi] = iw
		m.dirty[wi] = 0
	}
	for _, iw := range img.words {
		if m.touched[iw.wi] == 0 {
			// Not seen above: the current memory never touched this word.
			m.restoreWord(img, iw.wi, iw.bits)
			m.touched[iw.wi] = iw.bits
		}
		m.touchedSum[iw.wi>>6] |= 1 << (iw.wi & 63)
	}
	m.snapGen++
	img.gen = m.snapGen
}

// FlipCheckBit inverts one stored check bit of the group at a.
func (m *Memory) FlipCheckBit(a Addr, bit uint) {
	if bit >= 8 {
		panic("physmem: check bit out of range")
	}
	m.mutable(m.groupIndex(a)).check ^= 1 << bit
}
