package machine

import (
	"slices"
	"testing"

	"safemem/internal/cache"
	"safemem/internal/kernel"
	"safemem/internal/physmem"
	"safemem/internal/vm"
)

// FuzzMachineReset is the differential test of the two machine reuse
// paths. It decodes a small op program — stores, loads, watch/unwatch,
// FlushAll, swap-out (swap-in happens on the next touch), stuck-at plants
// that drive the kernel into page retirement, cache-filling sweeps, and
// Snapshot/Restore mixed with Recycle — and runs it on one reused machine.
// Whenever that machine is recycled, and at the end, its digest must match
// a fresh machine that replayed only the ops that define the current state;
// right after a Restore, its digest must match the one taken at the
// snapshot. The machine is small (1 MiB DRAM, a 16-way cache) so the
// checked-in corpus (testdata/fuzz/FuzzMachineReset) reaches every reset
// fallback: a spilled cache fill log, a capture of a non-pristine cache,
// and a physmem image generation mismatch.
func FuzzMachineReset(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeResetProgram(data)
		m := MustNew(resetFuzzConfig)
		resetFuzzSetup(m)
		type snap struct {
			s      *Snapshot
			hist   []resetOp
			digest recycleDigest
		}
		var (
			hist  []resetOp
			snaps []snap
		)
		for i, op := range prog {
			switch op.kind {
			case rsSnapshot:
				if !m.Kern.Panicked() {
					snaps = append(snaps, snap{m.Snapshot(), slices.Clone(hist), resetFuzzDigest(m)})
				}
			case rsRestore:
				if len(snaps) == 0 {
					continue
				}
				s := snaps[int(op.a)%len(snaps)]
				m.Restore(s.s)
				if got := resetFuzzDigest(m); got != s.digest {
					t.Fatalf("op %d: restored machine diverges from its snapshot:\nsnapshot: %+v\nrestored: %+v", i, s.digest, got)
				}
				hist = slices.Clone(s.hist)
			case rsRecycle:
				checkAgainstReplay(t, i, m, hist)
				m.Recycle()
				resetFuzzSetup(m)
				hist, snaps = nil, nil
			default:
				applyResetOp(m, op)
				hist = append(hist, op)
			}
		}
		checkAgainstReplay(t, len(prog), m, hist)
	})
}

// Op kinds of the FuzzMachineReset program, one per byte triple (kind, a,
// b); kinds wrap modulo rsKinds.
const (
	rsStore = iota
	rsLoad
	rsWatch
	rsUnwatch
	rsFlushAll
	rsSwapOut
	rsStuckAt
	rsSweep
	rsCompute
	rsSnapshot
	rsRestore
	rsRecycle
	rsKinds
)

const (
	resetFuzzBase   vm.VAddr = 0x40000
	resetFuzzPages           = 6
	resetFuzzMaxOps          = 64
)

var resetFuzzConfig = Config{MemBytes: 1 << 20, Cache: cache.Config{Sets: 8, Ways: 2}}

type resetOp struct{ kind, a, b uint8 }

func decodeResetProgram(data []byte) []resetOp {
	var prog []resetOp
	for i := 0; i+2 < len(data) && len(prog) < resetFuzzMaxOps; i += 3 {
		prog = append(prog, resetOp{data[i] % rsKinds, data[i+1], data[i+2]})
	}
	return prog
}

// resetFuzzSetup is the start of every tenant: map the working pages,
// survive hardware errors by retiring pages after two corrected errors on
// a line, and disarm a watch when it trips, as SafeMem would.
func resetFuzzSetup(m *Machine) {
	_ = m.Run(func() error {
		m.Kern.SetResilience(kernel.ResilienceOptions{Policy: kernel.RetireAndContinue, RetireThreshold: 2})
		m.Kern.RegisterECCFaultHandler(func(f *kernel.ECCFault) bool {
			return f.Watched && m.Kern.DisableWatchMemory(f.VLine, physmem.LineBytes) == nil
		})
		return m.Kern.MapPages(resetFuzzBase, resetFuzzPages)
	})
}

// applyResetOp runs one state-changing op. Errors and recovered simulator
// faults are part of the deterministic history, so they are not checked;
// a panicked kernel runs nothing until the next reset.
func applyResetOp(m *Machine, op resetOp) {
	if m.Kern.Panicked() {
		return
	}
	va := resetFuzzBase + vm.VAddr(op.a%resetFuzzPages)*vm.PageBytes + vm.VAddr(op.b)*16
	line := va.LineAddr()
	_ = m.Run(func() error {
		switch op.kind {
		case rsStore:
			m.Store64(va, uint64(op.a)<<8|uint64(op.b)+1)
		case rsLoad:
			m.Load64(va)
		case rsWatch:
			_, err := m.Kern.WatchMemory(line, physmem.LineBytes)
			return err
		case rsUnwatch:
			return m.Kern.DisableWatchMemory(line, physmem.LineBytes)
		case rsFlushAll:
			m.Cache.FlushAll()
		case rsSwapOut:
			m.AS.SwapOutLRU(int(op.b%3) + 1)
		case rsStuckAt:
			// A cell stuck at one: set the bit in DRAM if it reads zero. The
			// next read corrects it and feeds the line's health score.
			frame, ok := m.AS.FrameOf(va)
			if !ok {
				return nil
			}
			ga := (frame + physmem.Addr(va.PageOffset())).GroupAddr()
			m.Cache.FlushLine(ga.LineAddr())
			bit := uint(op.b % 64)
			if data, _ := m.Phys.ReadGroupRaw(ga); data&(1<<bit) == 0 {
				m.Phys.FlipDataBit(ga, bit)
			}
		case rsSweep:
			// Three times the cache's ways in distinct lines: the fill log
			// spills.
			for i := 0; i < 48; i++ {
				l := (int(op.a) + 7*i) % (resetFuzzPages * vm.LinesPerPage)
				m.Store64(resetFuzzBase+vm.VAddr(l*physmem.LineBytes), uint64(i))
			}
		case rsCompute:
			m.Compute(uint64(op.b) * 1000)
		}
		return nil
	})
}

func resetFuzzDigest(m *Machine) recycleDigest {
	return digestMachine(m, resetFuzzBase, resetFuzzPages)
}

// checkAgainstReplay compares m with a fresh machine that ran the setup and
// hist.
func checkAgainstReplay(t *testing.T, at int, m *Machine, hist []resetOp) {
	t.Helper()
	ref := MustNew(resetFuzzConfig)
	resetFuzzSetup(ref)
	for _, op := range hist {
		applyResetOp(ref, op)
	}
	if got, want := resetFuzzDigest(m), resetFuzzDigest(ref); got != want {
		t.Fatalf("op %d: reused machine diverges from a fresh replay of %v:\nfresh:  %+v\nreused: %+v", at, hist, want, got)
	}
}
