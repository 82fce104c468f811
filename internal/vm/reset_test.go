package vm

import (
	"slices"
	"testing"

	"safemem/internal/physmem"
)

// TestFreeFrameResetModel drives every free-frame pop and push site (Map,
// Unmap, swap out and in, migration, retirement) between captures,
// restores of the latest and of older images, and Recycles, and checks the
// low-water-mark rewrites against full copies: after Recycle the stack must
// equal a fresh address space's, after RestoreImage the captured one.
func TestFreeFrameResetModel(t *testing.T) {
	const frames = 32
	as, _ := newAS(frames)
	fresh := slices.Clone(as.frames)
	rng := uint64(0x243f6a8885a308d3)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	type snap struct {
		img    *Image
		frames []physmem.Addr
	}
	var snaps []snap
	mapped := func() []VAddr {
		var vas []VAddr
		for vpn := range as.pages {
			vas = append(vas, VAddr(vpn*PageBytes))
		}
		slices.Sort(vas)
		return vas
	}
	for step := 0; step < 3000; step++ {
		vas := mapped()
		pick := func() VAddr { return vas[next(uint64(len(vas)))] }
		switch op := next(100); {
		case op < 30:
			_ = as.Map(VAddr(next(64)*PageBytes), int(next(3)+1), ProtRW)
		case op < 45 && len(vas) > 0:
			_ = as.Unmap(pick(), 1)
		case op < 55:
			as.SwapOutLRU(int(next(3)))
		case op < 65 && len(vas) > 0:
			as.Translate(pick(), false) // swaps a swapped-out page back in
		case op < 70 && len(vas) > 0:
			_, _, _ = as.MigratePage(pick())
		case op < 73 && len(vas) > 0:
			_, _, _ = as.RetirePage(pick())
		case op < 82:
			snaps = append(snaps, snap{as.CaptureImage(), slices.Clone(as.frames)})
		case op < 94 && len(snaps) > 0:
			s := snaps[len(snaps)-1]
			if next(3) == 0 {
				s = snaps[next(uint64(len(snaps)))]
			}
			as.RestoreImage(s.img)
			if !slices.Equal(as.frames, s.frames) {
				t.Fatalf("step %d: restored free list %v, want %v", step, as.frames, s.frames)
			}
		case op >= 94:
			as.Recycle()
			if !slices.Equal(as.frames, fresh) || len(as.pages) != 0 || len(as.retired) != 0 {
				t.Fatalf("step %d: recycled free list %v, want %v", step, as.frames, fresh)
			}
		}
		if as.freeLow > len(as.frames) || !slices.Equal(as.frames[:as.freeLow], fresh[:as.freeLow]) {
			t.Fatalf("step %d: free-list prefix below mark %d diverged from fresh", step, as.freeLow)
		}
	}
}
